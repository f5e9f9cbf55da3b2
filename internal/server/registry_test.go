package server

import (
	"net/http"
	"strings"
	"testing"

	"minequery/internal/wire"
)

// TestRegistryExactTextHit: the normalized text a coordinator sends is
// the entry its spelled original made, found without normalizing it
// again — so without allocating.
func TestRegistryExactTextHit(t *testing.T) {
	s, _ := testServer(t, testEngine(t, 200), Config{})
	spelled, _, err := s.reg.lookup("SELECT  ID FROM Customers WHERE age = 3.0", false)
	if err != nil {
		t.Fatal(err)
	}
	norm := spelled.norm
	if norm != "select id from customers where age = 3.0" {
		t.Fatalf("normalized text %q", norm)
	}
	ent, existed, err := s.reg.lookup(norm, false)
	if err != nil || !existed || ent != spelled {
		t.Fatalf("normalized text found %p (existed %v, %v), want the spelled text's entry %p", ent, existed, err, spelled)
	}
	if raceEnabled {
		return // the race detector allocates on the program's behalf
	}
	if n := testing.AllocsPerRun(100, func() { _, _, _ = s.reg.lookup(norm, false) }); n != 0 {
		t.Fatalf("an exact-text hit allocates %v times: it normalized the text again", n)
	}
}

// TestRegistryHintedTextUnreachable: a forced entry's key is the
// hint-prefixed text; sent as plain SQL, that text is still a parse
// error, not the forced plan.
func TestRegistryHintedTextUnreachable(t *testing.T) {
	s, ts := testServer(t, testEngine(t, 200), Config{})
	forced, _, err := s.reg.lookup(vipQuery, true)
	if err != nil {
		t.Fatal(err)
	}
	status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute", wire.ExecuteRequest{SQL: forced.key})
	if status != http.StatusBadRequest || errCode(t, raw) != wire.CodeParse {
		t.Fatalf("%q answered %d %s, want %s", forced.key, status, raw, wire.CodeParse)
	}
}

// TestRegistrySpellingsKeepTheirOwnErrors: a FLOAT literal and the INT
// it equals are spelled apart in the registry's key, so a statement
// cached for one spelling never answers for the other: LIMIT 2.0 is a
// parse error that LIMIT 2 must not inherit, and LIMIT 3.0 stays one
// after LIMIT 3 has run.
func TestRegistrySpellingsKeepTheirOwnErrors(t *testing.T) {
	_, ts := testServer(t, testEngine(t, 200), Config{})
	exec := func(sql string) (int, wire.ErrorBody) {
		status, raw := call(t, http.MethodPost, ts.URL+"/v1/execute", wire.ExecuteRequest{SQL: sql})
		if status == http.StatusOK {
			return status, wire.ErrorBody{}
		}
		return status, decode[map[string]wire.ErrorBody](t, raw)["error"]
	}
	status, body := exec("SELECT id FROM customers LIMIT 2.0")
	if status != http.StatusBadRequest || body.Code != wire.CodeParse || !strings.Contains(body.Message, `bad LIMIT value "2.0"`) {
		t.Fatalf("LIMIT 2.0 answered %d %+v, want a parse error about \"2.0\"", status, body)
	}
	if status, body := exec("SELECT id FROM customers LIMIT 2"); status != http.StatusOK {
		t.Fatalf("LIMIT 2 after LIMIT 2.0 answered %d %+v, want 200", status, body)
	}
	if status, body := exec("SELECT id FROM customers LIMIT 3"); status != http.StatusOK {
		t.Fatalf("LIMIT 3 answered %d %+v, want 200", status, body)
	}
	status, body = exec("SELECT id FROM customers LIMIT 3.0")
	if status != http.StatusBadRequest || body.Code != wire.CodeParse || !strings.Contains(body.Message, `bad LIMIT value "3.0"`) {
		t.Fatalf("LIMIT 3.0 after LIMIT 3 answered %d %+v, want a parse error about \"3.0\"", status, body)
	}
}
