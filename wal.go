package minequery

// WAL attachment and recovery. The engine is born volatile; EnableWAL
// attaches a log device, replays whatever durable history it holds, and
// from then on logs every Exec statement before applying it.
//
// Replay runs the recovered records through the same applyDML /
// createModelLocked code as live statements — including the write-volume
// retrain accounting — so the recovered engine reaches the same model
// timeline (same versions, same epochs relative to the log) that the
// pre-crash engine passed through. For that to hold, callers must
// configure the engine identically before EnableWAL (same schema loads,
// Train* models and SetRetrainPolicy) as on the original run.

import (
	"fmt"

	"minequery/internal/qerr"
	"minequery/internal/sqlparse"
	"minequery/internal/wal"
)

// WALDevice is the byte device a WAL lives on (re-exported so callers
// never import internal packages). MemWALDevice models a page cache
// with separate durable and pending regions for crash tests;
// OpenWALFile returns a file-backed device whose Sync is fsync.
type WALDevice = wal.Device

// MemWALDevice is the in-memory crash-testable device.
type MemWALDevice = wal.MemDevice

// NewMemWALDevice returns an empty in-memory WAL device.
func NewMemWALDevice() *MemWALDevice { return wal.NewMemDevice() }

// NewMemWALDeviceFrom returns an in-memory WAL device whose durable
// contents start as b — typically a crash image from a previous run.
func NewMemWALDeviceFrom(b []byte) *MemWALDevice { return wal.NewMemDeviceFrom(b) }

// OpenWALFile opens (creating if absent) a file-backed WAL device.
func OpenWALFile(path string) (*wal.FileDevice, error) { return wal.OpenFileDevice(path) }

// EnableWAL attaches a write-ahead log to the engine. The device's
// existing contents are replayed first (recovering from a crash of a
// previous incarnation); afterwards every write statement is appended
// and fsynced before it is applied. Returns the number of replayed
// records. Load seed data and make Go-API models first: no log record
// carries Insert, InsertBatch, Train*, RegisterModel or DropModel, so
// once a log is attached they are refused (ErrUnsupportedQuery).
func (e *Engine) EnableWAL(dev wal.Device) (int, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if e.wlog.Load() != nil {
		return 0, fmt.Errorf("minequery: WAL already enabled")
	}
	l, rep, err := wal.Open(dev)
	if err != nil {
		return 0, fmt.Errorf("minequery: open WAL: %w", err)
	}
	e.replaying = true
	for i := range rep.Records {
		if err := e.replayRecord(&rep.Records[i]); err != nil {
			e.replaying = false
			return 0, fmt.Errorf("minequery: WAL replay record %d/%d: %w", i+1, len(rep.Records), err)
		}
	}
	e.replaying = false
	l.SetFaults(e.execOpts.Faults)
	e.wlog.Store(l)
	e.metrics.Load().walReplay(int64(rep.Frames))
	return len(rep.Records), nil
}

// replayRecord re-applies one recovered record. Caller holds writeMu
// with e.replaying set (so the apply path does not re-log).
func (e *Engine) replayRecord(rec *wal.Record) error {
	switch rec.Kind {
	case wal.RecordDML:
		t, ok := e.cat.Table(rec.Table)
		if !ok {
			return fmt.Errorf("%w %q (schema must be loaded before EnableWAL)", qerr.ErrUnknownTable, rec.Table)
		}
		n, err := e.applyDML(t, rec.Muts, nil)
		if err != nil {
			return err
		}
		// A threshold retrain can fail deterministically (e.g. the log's
		// deletes emptied the table before the trigger fired). On the live
		// path that surfaced as an ErrRetrainFailed alongside the applied,
		// logged DML while the engine kept running — so replay must reach
		// the same state: tolerate the retrain failure (ErrRetrainFailed is
		// the only error noteWrites can return) and keep recovering. Only
		// DML apply failures abort recovery.
		_, _ = e.noteWrites(t.Name, n)
		return nil
	case wal.RecordDDL:
		st, err := sqlparse.ParseStatement(rec.DDL)
		if err != nil {
			return fmt.Errorf("logged DDL: %w", err)
		}
		if st.Kind != sqlparse.StmtCreateModel {
			return fmt.Errorf("logged DDL is not CREATE MODEL: %q", rec.DDL)
		}
		_, err = e.createModelLocked(newModelDef(st.CreateModel, rec.DDL), true)
		return err
	}
	return fmt.Errorf("unknown WAL record kind %d", rec.Kind)
}

// walAppend logs one record if a WAL is attached and the engine is not
// replaying. Caller holds writeMu. On failure nothing has been applied,
// the statement errors out, and the log is sticky-broken — the engine
// refuses further writes rather than drift from its durable history.
func (e *Engine) walAppend(rec wal.Record) error {
	l := e.wlog.Load()
	if l == nil || e.replaying {
		return nil
	}
	if err := l.Append(rec); err != nil {
		return fmt.Errorf("minequery: WAL append: %w", err)
	}
	e.metrics.Load().walAppend()
	return nil
}
