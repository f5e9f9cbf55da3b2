package main

// write_stream: the write path in steady state. A 20k-row events table
// takes a fixed cycle of statements — 16-row INSERTs balanced by range
// DELETEs of the oldest rows, plus range UPDATEs — through Engine.Exec,
// with two CREATE MODEL models retraining on write volume, a thousand
// standing subscriptions evaluated on every committed batch, and a WAL
// on an in-memory device. Nothing here is exercised by the read
// workloads, so a read-side gain that taxes writes shows up here.
//
// The WAL sits on wal.MemDevice, not a file: a probe on this box put
// the same write stream 13–20% apart run to run on a file WAL (fsync on
// a shared disk) and 3–4% apart on the in-memory device. The traced
// run re-appends a sample of the frames to a real file and reports its
// fsync time as wal.file_sync_us, unbounded.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"minequery"
	"minequery/internal/catalog"
	"minequery/internal/mining"
	"minequery/internal/mining/dtree"
	"minequery/internal/mining/nbayes"
	"minequery/internal/sqlparse"
	"minequery/internal/standing"
	"minequery/internal/wal"
)

const (
	eventNumDomain = 10000
	eventCats      = 16
	insertRows     = 16 // rows per INSERT statement
	updateRows     = 64 // rows per UPDATE statement
	// One cycle is cycleInserts INSERTs, one DELETE of as many of the
	// oldest rows, and cycleUpdates UPDATEs of a range of live rows: the
	// table stays at its initial size. The shares (90% / 3.3% / 6.7% of
	// the statements) put p50 inside the INSERTs and p95 inside the
	// UPDATEs, not on the edge between two statement kinds.
	cycleInserts  = 27
	cycleUpdates  = 2
	cycleStmts    = cycleInserts + 1 + cycleUpdates
	cycleWrites   = 2*cycleInserts*insertRows + cycleUpdates*updateRows
	retrainsAPass = 2
	createDT      = `CREATE MODEL dt ON events PREDICT cls USING dtree AS SELECT num, cls FROM events`
	createNB      = `CREATE MODEL nb ON events PREDICT grp USING nbayes AS SELECT cat, grp FROM events`
	versionProbe  = `SELECT id FROM events PREDICTION JOIN dt AS m ON m.num = events.num` +
		` PREDICTION JOIN nb AS g ON g.cat = events.cat WHERE m.cls = 'high' AND g.grp = 'a'`
)

func eventSchema() *minequery.Schema {
	return minequery.MustSchema(
		minequery.Column{Name: "id", Kind: minequery.KindInt},
		minequery.Column{Name: "cat", Kind: minequery.KindString},
		minequery.Column{Name: "num", Kind: minequery.KindInt},
		minequery.Column{Name: "flag", Kind: minequery.KindInt},
		minequery.Column{Name: "cls", Kind: minequery.KindString},
		minequery.Column{Name: "grp", Kind: minequery.KindString},
	)
}

// event is one events row in the oracle's form.
type event struct {
	cat  int
	num  int64
	flag int64
}

func (e event) cls() string {
	if e.num >= 8500 {
		return "high"
	}
	return "low"
}

func (e event) grp() string {
	if e.cat >= eventCats/2 {
		return "b"
	}
	return "a"
}

func (e event) tuple(id int64) minequery.Tuple {
	return minequery.Tuple{
		minequery.Int(id), minequery.Str(fmt.Sprintf("c%d", e.cat)), minequery.Int(e.num),
		minequery.Int(e.flag), minequery.Str(e.cls()), minequery.Str(e.grp()),
	}
}

func (e event) literal(id int64) string {
	return fmt.Sprintf("(%d, 'c%d', %d, %d, '%s', '%s')", id, e.cat, e.num, e.flag, e.cls(), e.grp())
}

func genEvent(r *rand.Rand) event {
	return event{cat: r.Intn(eventCats), num: int64(r.Intn(eventNumDomain))}
}

// genSubscription draws one standing query: mostly narrow data ranges
// with distinct constants, the rest mining predicates that share a few
// envelope regions.
func genSubscription(r *rand.Rand) string {
	switch p := r.Intn(10); {
	case p < 2:
		cls := "high"
		if r.Intn(2) == 0 {
			cls = "low"
		}
		return fmt.Sprintf(`SELECT id FROM events PREDICTION JOIN dt AS m ON m.num = events.num WHERE m.cls = '%s' AND num >= %d`,
			cls, 9000+r.Intn(1000))
	case p < 3:
		grp := "a"
		if r.Intn(2) == 0 {
			grp = "b"
		}
		return fmt.Sprintf(`SELECT id FROM events PREDICTION JOIN nb AS m ON m.cat = events.cat WHERE m.grp = '%s' AND cat = 'c%d'`,
			grp, r.Intn(eventCats))
	default:
		lo := r.Intn(eventNumDomain - 100)
		return fmt.Sprintf(`SELECT id FROM events WHERE num >= %d AND num <= %d`, lo, lo+20+r.Intn(60))
	}
}

// countingDevice wraps the WAL device: it counts and times every Write
// and Sync, and on traced passes records each as a span.
type countingDevice struct {
	inner wal.Device
	tr    *tracer
	devCounters
	lastWriteBytes []int // frame sizes, kept for the file-fsync probe
}

// devCounters is what the device has counted so far.
type devCounters struct {
	writes, syncs, bytes int64
	writeT, syncT        time.Duration
}

func (d *countingDevice) Contents() ([]byte, error) { return d.inner.Contents() }
func (d *countingDevice) Truncate(n int) error      { return d.inner.Truncate(n) }

func (d *countingDevice) Write(p []byte) error {
	id := d.tr.start("wal.write")
	t := time.Now()
	err := d.inner.Write(p)
	d.writeT += time.Since(t)
	d.tr.end(id)
	d.writes++
	d.bytes += int64(len(p))
	if len(d.lastWriteBytes) < fileProbeFrames {
		d.lastWriteBytes = append(d.lastWriteBytes, len(p))
	}
	return err
}

func (d *countingDevice) Sync() error {
	id := d.tr.start("wal.sync")
	t := time.Now()
	err := d.inner.Sync()
	d.syncT += time.Since(t)
	d.tr.end(id)
	d.syncs++
	return err
}

// fileProbeFrames is how many frames the traced run re-appends to a real
// file to time fsync on this machine's disk.
const fileProbeFrames = 64

type stmtKind int

const (
	kindInsert stmtKind = iota
	kindUpdate
	kindDelete
)

// stmt is one generated write statement and what the oracle expects of
// it.
type stmt struct {
	sql     string
	kind    stmtKind
	rows    int64 // rows the statement must affect
	retrain bool  // the write-volume trigger must fire on it
	batch   []minequery.Tuple
}

type streamFx struct {
	scratch  string
	seed     int64
	initial  int
	eng      *minequery.Engine
	dev      *countingDevice
	mem      *wal.MemDevice
	r        *rand.Rand
	subs     []string
	stmts    []stmt
	perPass  int
	ctx      context.Context
	oracle   map[int64]event
	lowID    int64 // oldest live id
	nextID   int64
	sinceRT  int64 // oracle's copy of the engine's write-volume counter
	retrains int64
	drained  int64

	// per-pass accounting, reset in preparePass
	kindT      [3]time.Duration
	kindN      [3]int
	retrainT   time.Duration
	retrainN   int
	pollT      time.Duration
	rowsSeen   int64 // row images handed to the standing set
	devBefore  devCounters
	standBefor minequery.StandingStats

	// recovery snapshot: the log and the expected state after snapPass.
	// Replaying a log costs about what writing it did, and recovery is
	// timed three times, so it replays the first two passes, not all ten.
	snapLog      []byte
	snapRows     []string
	snapRetrains int64
	snapSum      uint64
	finalErr     error

	// traced passes only
	twinSet   *standing.Set
	twinPend  int64
	twinT     time.Duration
	twinN     int
	parseT    time.Duration
	recompile time.Duration
}

// snapPass is the pass after which the recovery snapshot is taken.
const snapPass = 1

func setupWriteStream(seed int64, sz sizes) (fixture, map[string]float64, error) {
	ph := phaseTimer{}
	f := &streamFx{
		scratch: sz.scratch, seed: seed, initial: sz.eventRows, ctx: context.Background(),
		r:      rand.New(rand.NewSource(seed + 4)),
		oracle: make(map[int64]event, sz.eventRows),
	}
	cycles := sz.writeStmts / cycleStmts
	if cycles < retrainsAPass {
		cycles = retrainsAPass
	}
	cycles -= cycles % retrainsAPass
	f.perPass = cycles * cycleStmts

	for id, e := range f.seedEvents() {
		f.oracle[int64(id)] = e
	}
	f.nextID = int64(f.initial)
	rows := f.seedRows()
	t := time.Now()
	eng, err := f.newEngine(rows, int64(cycles/retrainsAPass)*cycleWrites)
	if err != nil {
		return nil, nil, err
	}
	ph["storage.load_rows_per_s"] = float64(len(rows)) / time.Since(t).Seconds()
	f.eng = eng
	f.mem = wal.NewMemDevice()
	f.dev = &countingDevice{inner: f.mem}
	if _, err := eng.EnableWAL(f.dev); err != nil {
		return nil, nil, err
	}
	for _, m := range []struct{ family, ddl string }{{"dtree", createDT}, {"nbayes", createNB}} {
		res, err := eng.Exec(f.ctx, m.ddl)
		if err != nil {
			return nil, nil, err
		}
		ph.model(m.family, res.Model)
	}
	ph.finish()
	sr := rand.New(rand.NewSource(seed + 5))
	f.subs = make([]string, sz.subs)
	for i := range f.subs {
		f.subs[i] = genSubscription(sr)
		if _, err := eng.Subscribe(f.subs[i]); err != nil {
			return nil, nil, err
		}
	}
	return f, ph, nil
}

// seedEvents draws the initial table, ids 0..n-1: the same rows every
// time, for the oracle, the live engine, every recovered engine and the
// twin.
func (f *streamFx) seedEvents() []event {
	r := rand.New(rand.NewSource(f.seed))
	events := make([]event, f.initial)
	for i := range events {
		events[i] = genEvent(r)
	}
	return events
}

func (f *streamFx) seedRows() []minequery.Tuple {
	rows := make([]minequery.Tuple, f.initial)
	for id, e := range f.seedEvents() {
		rows[id] = e.tuple(int64(id))
	}
	return rows
}

// newEngine loads the seed rows into a fresh engine configured the way
// both the live and every recovered engine must be before EnableWAL.
func (f *streamFx) newEngine(rows []minequery.Tuple, threshold int64) (*minequery.Engine, error) {
	eng := minequery.NewWithConfig(minequery.Config{StandingQueue: 1 << 15})
	eng.SetDOP(1)
	if err := eng.CreateTable("events", eventSchema()); err != nil {
		return nil, err
	}
	if err := eng.InsertBatch("events", rows); err != nil {
		return nil, err
	}
	eng.SetRetrainPolicy(minequery.RetrainPolicy{WriteThreshold: threshold})
	return eng, nil
}

func (f *streamFx) threshold() int64 {
	return int64(f.perPass/cycleStmts/retrainsAPass) * cycleWrites
}

func (f *streamFx) opsPerPass() int { return f.perPass }
func (f *streamFx) rows() int       { return f.initial }
func (f *streamFx) close()          {}

// note credits a statement's writes to the oracle's retrain counter and
// reports whether the engine's trigger must fire on it.
func (f *streamFx) note(rows int64) bool {
	f.sinceRT += rows
	if f.sinceRT < f.threshold() {
		return false
	}
	f.sinceRT = 0
	f.retrains++
	return true
}

// preparePass generates the pass's statements and applies them to the
// oracle.
func (f *streamFx) preparePass(k int) {
	f.stmts = f.stmts[:0]
	for c := 0; c < f.perPass/cycleStmts; c++ {
		for i := 0; i < cycleInserts; i++ {
			var b strings.Builder
			b.WriteString("INSERT INTO events VALUES ")
			batch := make([]minequery.Tuple, insertRows)
			for j := range batch {
				e := genEvent(f.r)
				id := f.nextID
				f.nextID++
				f.oracle[id] = e
				batch[j] = e.tuple(id)
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(e.literal(id))
			}
			f.stmts = append(f.stmts, stmt{sql: b.String(), kind: kindInsert, rows: insertRows, retrain: f.note(insertRows), batch: batch})
		}
		n := int64(cycleInserts * insertRows)
		for id := f.lowID; id < f.lowID+n; id++ {
			delete(f.oracle, id)
		}
		f.stmts = append(f.stmts, stmt{
			sql:  fmt.Sprintf("DELETE FROM events WHERE id >= %d AND id < %d", f.lowID, f.lowID+n),
			kind: kindDelete, rows: n, retrain: f.note(n),
		})
		f.lowID += n
		for u := 0; u < cycleUpdates; u++ {
			lo := f.lowID + int64(f.r.Intn(int(f.nextID-f.lowID)-updateRows))
			flag := int64(1 + f.r.Intn(1000))
			for id := lo; id < lo+updateRows; id++ {
				e := f.oracle[id]
				e.flag = flag
				f.oracle[id] = e
			}
			f.stmts = append(f.stmts, stmt{
				sql:  fmt.Sprintf("UPDATE events SET flag = %d WHERE id >= %d AND id < %d", flag, lo, lo+updateRows),
				kind: kindUpdate, rows: updateRows, retrain: f.note(updateRows),
			})
		}
	}
	f.kindT, f.kindN = [3]time.Duration{}, [3]int{}
	f.retrainT, f.retrainN, f.pollT, f.rowsSeen = 0, 0, 0, 0
	f.twinT, f.twinN, f.parseT = 0, 0, 0
	f.devBefore = f.dev.devCounters
	f.standBefor = f.eng.StandingStats()
}

func (f *streamFx) do(i int, tr *tracer) bool {
	s := &f.stmts[i]
	f.dev.tr = tr
	t := time.Now()
	id := tr.start("engine.exec")
	res, err := f.eng.Exec(f.ctx, s.sql)
	tr.end(id)
	d := time.Since(t)
	f.dev.tr = nil
	if s.retrain {
		f.retrainT, f.retrainN = f.retrainT+d, f.retrainN+1
	} else {
		f.kindT[s.kind], f.kindN[s.kind] = f.kindT[s.kind]+d, f.kindN[s.kind]+1
	}
	if s.kind != kindDelete {
		f.rowsSeen += s.rows
	}

	// Drain the notifications on the load goroutine, so the queue never
	// overflows and delivery is part of the statement's cost.
	t = time.Now()
	id = tr.start("engine.notifications")
	st := f.eng.StandingStats()
	for pending := st.Matches - st.Dropped - f.drained; pending > 0; {
		ns, perr := f.eng.Notifications(f.ctx, int(pending))
		if perr != nil {
			return false
		}
		f.drained += int64(len(ns))
		pending -= int64(len(ns))
	}
	tr.end(id)
	f.pollT += time.Since(t)

	if err != nil || res.RowsAffected != s.rows {
		return false
	}
	want := 0
	if s.retrain {
		want = 2
	}
	return len(res.Retrained) == want
}

func (f *streamFx) enableTrace() error {
	// The twin set: the same subscriptions over a bench-owned catalog
	// holding the initial models, so one batch evaluation can be timed
	// on its own. Counts come from the engine's own set.
	cat := catalog.New()
	tab, err := cat.CreateTable("events", eventSchema())
	if err != nil {
		return err
	}
	rows := f.seedRows()
	if err := trainTwin(cat, tab, rows, []int{2}, 4, func(ts *mining.TrainSet) (mining.Model, error) {
		return dtree.Train("dt", "cls", ts, dtree.Options{})
	}); err != nil {
		return err
	}
	if err := trainTwin(cat, tab, rows, []int{1}, 5, func(ts *mining.TrainSet) (mining.Model, error) {
		return nbayes.Train("nb", "grp", ts, nbayes.Options{})
	}); err != nil {
		return err
	}
	f.twinSet = standing.NewSet(cat, standing.Options{Queue: 1 << 15})
	for _, sql := range f.subs {
		if _, err := f.twinSet.Subscribe(sql); err != nil {
			return err
		}
	}
	return nil
}

func (f *streamFx) drainTwin() {
	for pending := f.twinSet.Matches() - f.twinSet.Dropped() - f.twinPend; pending > 0; {
		ns, err := f.twinSet.Poll(f.ctx, int(pending))
		if err != nil {
			return
		}
		f.twinPend += int64(len(ns))
		pending -= int64(len(ns))
	}
}

func (f *streamFx) twin(i int, tr *tracer) {
	s := &f.stmts[i]
	t := time.Now()
	id := tr.start("sqlparse.parse")
	_, _ = sqlparse.ParseStatement(s.sql)
	tr.end(id)
	f.parseT += time.Since(t)
	if s.kind != kindInsert {
		return
	}
	if i == 0 {
		// One recompile per traced pass, timed with the one-row batch
		// that triggers it.
		f.twinSet.Invalidate()
		t = time.Now()
		f.twinSet.EvalBatch("events", s.batch[:1], 0)
		f.recompile = time.Since(t)
		f.drainTwin()
	}
	t = time.Now()
	id = tr.start("standing.eval_batch")
	f.twinSet.EvalBatch("events", s.batch, 0)
	tr.end(id)
	f.twinT, f.twinN = f.twinT+time.Since(t), f.twinN+1
	f.drainTwin()
}

func (f *streamFx) afterPass(k int, tr *tracer, ps *passStats, out map[string]float64) {
	if k == snapPass {
		f.snapshot()
	}
	n := float64(ps.ops)
	mean := func(t time.Duration, c int) float64 {
		if c == 0 {
			return 0
		}
		return us(t) / float64(c)
	}
	if tr == nil {
		// Counters and whole-statement timings: the untraced passes.
		dev, st := f.dev.devCounters, f.eng.StandingStats()
		rows := float64(f.rowsSeen)
		out["wal.syncs_per_stmt"] = float64(dev.syncs-f.devBefore.syncs) / n
		out["wal.bytes_per_row"] = float64(dev.bytes-f.devBefore.bytes) / float64(int64(ps.ops/cycleStmts)*cycleWrites)
		out["wal.append_us"] = mean(dev.writeT-f.devBefore.writeT, int(dev.writes-f.devBefore.writes))
		out["wal.sync_us"] = mean(dev.syncT-f.devBefore.syncT, int(dev.syncs-f.devBefore.syncs))
		out["standing.evals_per_row"] = float64(st.Evals-f.standBefor.Evals) / rows
		out["standing.model_calls_per_row"] = float64(st.ModelCalls-f.standBefor.ModelCalls) / rows
		out["standing.matches_per_row"] = float64(st.Matches-f.standBefor.Matches) / rows
		out["standing.dropped"] = float64(st.Dropped - f.standBefor.Dropped)
		out["standing.recompiles"] = float64(st.Recompiles - f.standBefor.Recompiles)
		out["standing.poll_us"] = us(f.pollT) / n
		out["dml.insert_us"] = mean(f.kindT[kindInsert], f.kindN[kindInsert])
		out["dml.update_us"] = mean(f.kindT[kindUpdate], f.kindN[kindUpdate])
		out["dml.delete_us"] = mean(f.kindT[kindDelete], f.kindN[kindDelete])
		if f.retrainN > 0 {
			// What a retrain adds to the statement that triggers it.
			plain := (f.kindT[kindInsert] + f.kindT[kindUpdate] + f.kindT[kindDelete]).Seconds() /
				float64(f.kindN[kindInsert]+f.kindN[kindUpdate]+f.kindN[kindDelete])
			out["dml.retrain_ms"] = 1000 * (f.retrainT.Seconds()/float64(f.retrainN) - plain)
		}
		out["write_stall_ms"] = ps.slowestMeanMS(retrainsAPass)
		return
	}
	agg := tr.aggregate()
	out["exec.execute_us"] = us(agg["engine.exec"].total) / n
	out["sqlparse.parse_us"] = us(f.parseT) / n
	out["standing.eval_us_per_batch"] = mean(f.twinT, f.twinN)
	out["standing.recompile_ms"] = ms(f.recompile)
}

// sortedRows renders the oracle's table canonically.
func (f *streamFx) sortedRows() []string {
	rows := make([]minequery.Tuple, 0, len(f.oracle))
	for id, e := range f.oracle {
		rows = append(rows, e.tuple(id))
	}
	return canonTuples(rows)
}

// snapshot freezes the log and the oracle's state for the recovery
// check.
func (f *streamFx) snapshot() {
	blob, err := f.mem.Contents()
	if err != nil {
		f.finalErr = err
		return
	}
	f.snapLog = blob
	f.snapRows = f.sortedRows()
	f.snapRetrains = f.retrains
	var sum checksum
	sum.add(f.snapRows)
	sum.add([]string{fmt.Sprint(f.snapRetrains)})
	f.snapSum = sum.h
}

// tableOf reads an engine's whole events table and its model versions.
func tableOf(eng *minequery.Engine) ([]string, int64, int64, error) {
	res, err := eng.Query(context.Background(), "SELECT * FROM events")
	if err != nil {
		return nil, 0, 0, err
	}
	o, err := eng.Outline(versionProbe)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(o.Models) != 2 {
		return nil, 0, 0, fmt.Errorf("version probe names %d models, want 2", len(o.Models))
	}
	return canonTuples(res.Rows), o.Models[0].Version, o.Models[1].Version, nil
}

// checkState compares an engine against the oracle's rows and retrain
// count (a model's version is 1 + the retrains it went through).
func checkState(what string, eng *minequery.Engine, rows []string, retrains int64) error {
	got, dtV, nbV, err := tableOf(eng)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if err := sameRows(what, got, rows); err != nil {
		return err
	}
	if dtV != 1+retrains || nbV != 1+retrains {
		return fmt.Errorf("%s: model versions dt=%d nb=%d, oracle has %d", what, dtV, nbV, 1+retrains)
	}
	return nil
}

func (f *streamFx) finish(out map[string]float64) error {
	// Recovery: replay the snapshot log into a fresh seeded engine,
	// three times, and check what comes back.
	var times []float64
	for i := 0; i < 3; i++ {
		eng, err := f.newEngine(f.seedRows(), f.threshold())
		if err != nil {
			return err
		}
		t := time.Now()
		n, err := eng.EnableWAL(wal.NewMemDeviceFrom(f.snapLog))
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		out["wal.replay_frames"] = float64(n)
		if i == 0 {
			if err := checkState("replayed engine", eng, f.snapRows, f.snapRetrains); err != nil {
				f.finalErr = err
			}
		}
	}
	out["recovery_s"] = median(times)
	out["wal.replay_ms"] = 1000 * median(times)
	if f.twinSet != nil && f.scratch != "" {
		d, err := fileSyncProbe(f.scratch, f.snapLog, f.dev.lastWriteBytes)
		if err != nil {
			return err
		}
		out["wal.file_sync_us"] = us(d)
	}
	return nil
}

// fileSyncProbe appends the first frames of the log to a real file, one
// Sync per frame as the commit path does, and returns the mean Sync.
func fileSyncProbe(dir string, log []byte, frames []int) (time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, "wal-probe.log")
	_ = os.Remove(path)
	dev, err := wal.OpenFileDevice(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer dev.Close()
	var total time.Duration
	off := 0
	for _, n := range frames {
		if off+n > len(log) {
			break
		}
		if err := dev.Write(log[off : off+n]); err != nil {
			return 0, err
		}
		off += n
		t := time.Now()
		if err := dev.Sync(); err != nil {
			return 0, err
		}
		total += time.Since(t)
	}
	if len(frames) == 0 {
		return 0, nil
	}
	return total / time.Duration(len(frames)), nil
}

func (f *streamFx) verify() (uint64, error) {
	if f.finalErr != nil {
		return 0, f.finalErr
	}
	st := f.eng.StandingStats()
	if st.Dropped != 0 {
		return 0, fmt.Errorf("standing set dropped %d notifications", st.Dropped)
	}
	if err := checkState("live engine", f.eng, f.sortedRows(), f.retrains); err != nil {
		return 0, err
	}
	return f.snapSum, nil
}

func (f *streamFx) shares(l map[string]float64) []layerShare {
	stmts := float64(f.perPass)
	rowsPerStmt := float64(cycleInserts*insertRows+cycleUpdates*updateRows) / cycleStmts
	walUS := l["wal.syncs_per_stmt"] * (l["wal.append_us"] + l["wal.sync_us"])
	standingUS := l["standing.eval_us_per_batch"]/insertRows*rowsPerStmt + l["standing.poll_us"]
	retrainUS := 1000 * l["dml.retrain_ms"] * retrainsAPass / stmts
	// What UPDATE and DELETE cost beyond an INSERT is the victim scan
	// and the re-insert; an INSERT's own remainder stays unaccounted.
	scanUS := (cycleUpdates*max(l["dml.update_us"]-l["dml.insert_us"], 0) + max(l["dml.delete_us"]-l["dml.insert_us"], 0)) / cycleStmts
	wall := l["exec.execute_us"] + l["standing.poll_us"]
	rest := wall - walUS - standingUS - retrainUS - scanUS - l["sqlparse.parse_us"]
	return shareList(wall, []layerShare{
		{"wal", walUS},
		{"standing", standingUS},
		{"retrain", retrainUS},
		{"sqlparse", l["sqlparse.parse_us"]},
		{"dml.scan", scanUS},
		{"unaccounted", rest},
	})
}
