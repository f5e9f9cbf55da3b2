package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"minequery/internal/recycle"
)

// Call performs one protocol round trip: POST in as JSON (or a bodiless
// request when in is nil), and decode a 200 answer into out. The body is
// read to its end — which also hands the connection back to the
// client's pool — into a buffer recycled across calls, and decoded from
// there with json.Unmarshal, which copies what out keeps. No decoded
// value holds an interface-typed number: the only cells on the wire are
// rows, and a RowSet keeps them as the sender's bytes. A non-200 answer
// comes back as *Error; anything else — transport failure, short read,
// undecodable body — as a plain error naming the step.
func Call(ctx context.Context, hc *http.Client, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("encode request: %w", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return fmt.Errorf("build request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := answers.Get()
	defer answers.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("read response: %w", err)
	}
	raw := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		var env ErrorEnvelope
		if json.Unmarshal(raw, &env) != nil || env.Error.Code == "" {
			const max = 200
			if len(raw) > max {
				raw = append(raw[:max:max], "..."...)
			}
			return &Error{Status: resp.StatusCode, Message: string(raw)}
		}
		return &Error{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message}
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// answers recycles the buffers answers are read into.
var answers recycle.Pool[bytes.Buffer]
