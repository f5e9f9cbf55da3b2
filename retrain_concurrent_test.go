package minequery

// Concurrent retrain test: writers cross the write-volume retrain
// threshold while readers hold prepared PREDICTION JOIN plans. A reader
// must observe exactly one of two things on every call — ErrStalePlan
// (the catalog epoch moved; re-prepare) or a correct fresh answer.
// Stale results are made detectable by construction: the label is a
// pure function of the data (red ⟺ b >= 50) and every write is
// consistent with it, so every retrained model learns the same concept
// and the correct answer at any instant is exactly "the red rows
// currently in the table". Two invariants are checked on every
// successful read:
//
//  1. No over-pruning: every red row acked before the call began must
//     be in the result. A stale envelope surviving a retrain would
//     prune rows the fresh model predicts — this count catches it.
//  2. No contamination: every returned row satisfies b >= 50.
//
// The test also requires that at least one ErrStalePlan was actually
// observed (the invalidation machinery fired, the test wasn't vacuous)
// and that the final state matches the exact expected row set.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

const retrainPredQuery = `SELECT id, b FROM t PREDICTION JOIN seg AS m ON m.a = t.a AND m.b = t.b WHERE m.label = 'red'`

func retrainLabel(b int64) string {
	if b >= 50 {
		return "red"
	}
	return "blue"
}

func TestConcurrentRetrainPreparedReaders(t *testing.T) {
	eng := New()
	if err := eng.CreateTable("t", dmlTestSchema()); err != nil {
		t.Fatal(err)
	}
	// 200 seed rows covering every b in 0..99 twice, labels consistent.
	seedRows := make([]Tuple, 200)
	for i := range seedRows {
		b := int64(i % 100)
		seedRows[i] = Tuple{Int(int64(i)), Int(int64(i % 8)), Int(b), Str(retrainLabel(b))}
	}
	if err := eng.InsertBatch("t", seedRows); err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Exec(ctx, "CREATE MODEL seg ON t PREDICT label USING dtree AS SELECT a, b, label FROM t"); err != nil {
		t.Fatal(err)
	}

	// Baseline: the tree must have learned the rule exactly (the split
	// candidates include the clean b boundary), or the invariants below
	// are unsound for this build and the test must say so loudly.
	base, err := eng.Query(ctx, retrainPredQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) != 100 {
		t.Fatalf("baseline model did not learn the b>=50 rule: %d red rows, want 100", len(base.Rows))
	}

	eng.SetRetrainPolicy(RetrainPolicy{WriteThreshold: 40})

	var redAcked atomic.Int64
	redAcked.Store(100)
	var staleSeen, retrainSeen atomic.Int64

	const writers, batches, perBatch = 2, 30, 5
	var writerWG, readerWG sync.WaitGroup
	errCh := make(chan error, writers+3)
	stop := make(chan struct{})
	// Every reader prepares before the first write and makes one last
	// call after the last, so whatever the scheduler does each of them
	// holds a plan across a retrain: that the invalidation is observed
	// does not depend on how long training takes.
	var prepared sync.WaitGroup
	for rd := 0; rd < 3; rd++ {
		rd := rd
		readerWG.Add(1)
		prepared.Add(1)
		go func() {
			defer readerWG.Done()
			p, err := eng.Prepare(retrainPredQuery)
			prepared.Done()
			if err != nil {
				errCh <- fmt.Errorf("reader %d prepare: %w", rd, err)
				return
			}
			for last := false; !last; {
				select {
				case <-stop:
					last = true
				default:
				}
				c0 := redAcked.Load()
				res, err := p.Execute(ctx)
				if errors.Is(err, ErrStalePlan) {
					staleSeen.Add(1)
					if p, err = eng.Prepare(retrainPredQuery); err != nil {
						errCh <- fmt.Errorf("reader %d re-prepare: %w", rd, err)
						return
					}
					continue
				}
				if err != nil {
					errCh <- fmt.Errorf("reader %d: only ErrStalePlan is an acceptable failure, got: %w", rd, err)
					return
				}
				if int64(len(res.Rows)) < c0 {
					errCh <- fmt.Errorf("reader %d: stale result — %d red rows returned, %d were acked before the call",
						rd, len(res.Rows), c0)
					return
				}
				for _, row := range res.Rows {
					if b := row[1].AsInt(); b < 50 {
						errCh <- fmt.Errorf("reader %d: row id=%d b=%d predicted red; no consistent model does that",
							rd, row[0].AsInt(), b)
						return
					}
				}
			}
		}()
	}
	prepared.Wait()
	for w := 0; w < writers; w++ {
		w := w
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			nextID := int64(10000 + w*100000)
			for i := 0; i < batches; i++ {
				var sb strings.Builder
				sb.WriteString("INSERT INTO t (id, a, b, label) VALUES ")
				red := int64(0)
				for j := 0; j < perBatch; j++ {
					b := (nextID*7 + int64(j)*13) % 100
					if b >= 50 {
						red++
					}
					if j > 0 {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "(%d, %d, %d, '%s')", nextID, nextID%8, b, retrainLabel(b))
					nextID++
				}
				res, err := eng.Exec(ctx, sb.String())
				if err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				if len(res.Retrained) > 0 {
					retrainSeen.Add(1)
				}
				redAcked.Add(red)
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if staleSeen.Load() == 0 {
		t.Fatal("no reader ever saw ErrStalePlan: retrains did not invalidate prepared plans")
	}
	if retrainSeen.Load() == 0 {
		t.Fatal("writers crossed the threshold but no retrain fired")
	}

	// Quiescent exactness: a fresh plan over the settled state returns
	// exactly the red rows, matching an ad-hoc Query byte for byte.
	p, err := eng.Prepare(retrainPredQuery)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := p.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	qres, err := eng.Query(ctx, retrainPredQuery)
	if err != nil {
		t.Fatal(err)
	}
	dump := func(rows []Tuple) string {
		keys := make([]string, len(rows))
		for i, r := range rows {
			keys[i] = fmt.Sprintf("%d|%d", r[0].AsInt(), r[1].AsInt())
		}
		sort.Strings(keys)
		return strings.Join(keys, "\n")
	}
	if dump(pres.Rows) != dump(qres.Rows) {
		t.Fatalf("quiescent prepared result diverges from ad-hoc query:\nprepared:\n%s\nquery:\n%s",
			dump(pres.Rows), dump(qres.Rows))
	}
	wantRed := 100
	for w := 0; w < writers; w++ {
		nextID := int64(10000 + w*100000)
		for i := 0; i < batches; i++ {
			for j := 0; j < perBatch; j++ {
				if (nextID*7+int64(j)*13)%100 >= 50 {
					wantRed++
				}
				nextID++
			}
		}
	}
	if len(qres.Rows) != wantRed {
		t.Fatalf("settled red count %d, want %d", len(qres.Rows), wantRed)
	}
}
