package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"minequery/internal/fault"
	"minequery/internal/storage"
)

// ErrCrash is the error tests arm on the WAL fault sites to model a
// process kill at a durability boundary. It is deliberately NOT
// transient: a crashed writer does not retry, it reboots and replays.
var ErrCrash = errors.New("wal: simulated crash")

// MutOp tags one logged mutation.
type MutOp byte

const (
	// OpInsert appends a row; Rec holds the encoded tuple.
	OpInsert MutOp = 1
	// OpDelete removes the row at RID.
	OpDelete MutOp = 2
	// OpUpdate deletes the row at RID and appends Rec as a new row
	// (the engine's update-moves-to-end semantics, which makes replay
	// RID assignment deterministic).
	OpUpdate MutOp = 3
)

// Mutation is one logged row change.
type Mutation struct {
	Op  MutOp
	RID storage.RID // delete/update target; unused for insert
	// Rec is the row's value.EncodeTuple bytes (unused for delete). The
	// heap stores them verbatim, so a change to the encoding is a change
	// to both the log and the heap.
	Rec []byte
}

// Record is one logged commit: either a batch of row mutations against
// Table (Kind == RecordDML) or a DDL statement re-executed verbatim on
// replay (Kind == RecordDDL).
type Record struct {
	Kind  RecordKind
	Table string
	Muts  []Mutation
	DDL   string
}

// RecordKind discriminates frame payloads.
type RecordKind byte

const (
	// RecordDML frames carry a table name plus row mutations.
	RecordDML RecordKind = 1
	// RecordDDL frames carry a statement (today: CREATE MODEL) that is
	// re-executed through the engine on replay.
	RecordDDL RecordKind = 2
)

// Replay is what Open recovered from the device.
type Replay struct {
	Records []Record
	// Frames is the number of intact frames replayed.
	Frames int
	// Truncated reports that the log ended in a torn or corrupt frame
	// (dropped, along with anything after it — crash-tail semantics).
	Truncated bool
	// Bytes is the length of the valid prefix.
	Bytes int
}

// Log is an append-only frame log over a Device. Appends follow the
// commit protocol: encode → write → fsync, with fault sites before the
// write (SiteWALAppend) and before the fsync (SiteWALSync). Any device
// or injected failure leaves the log sticky-broken: no further appends
// are accepted, so the durable log can differ from an engine that
// stopped applying by at most the one in-flight commit.
type Log struct {
	mu     sync.Mutex
	dev    Device
	broken error
	faults atomic.Pointer[fault.Injector]
}

// Open reads the device's durable contents, decodes the valid frame
// prefix, and returns a log positioned to append after it. Torn or
// CRC-corrupt tails are dropped, not errors: they are the expected
// residue of a crash mid-write — the device is truncated to the valid
// prefix so the next append lands where the garbage began. Without the
// truncation, post-recovery commits would sit after undecodable bytes
// and the NEXT replay would stop at the garbage, silently discarding
// every commit acked since — durable writes lost on the second crash.
func Open(dev Device) (*Log, *Replay, error) {
	raw, err := dev.Contents()
	if err != nil {
		return nil, nil, fmt.Errorf("wal: read log: %w", err)
	}
	rep := &Replay{}
	off := 0
	for {
		rec, n, ok := decodeFrame(raw[off:])
		if !ok {
			rep.Truncated = off < len(raw)
			break
		}
		rep.Records = append(rep.Records, rec)
		rep.Frames++
		off += n
	}
	rep.Bytes = off
	if rep.Truncated {
		if err := dev.Truncate(off); err != nil {
			return nil, nil, fmt.Errorf("wal: drop torn tail: %w", err)
		}
	}
	return &Log{dev: dev}, rep, nil
}

// SetFaults installs (or clears, with nil) the injector consulted at
// the append and sync sites.
func (l *Log) SetFaults(in *fault.Injector) { l.faults.Store(in) }

// Err reports the sticky failure that broke the log, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// Append encodes rec as one frame, writes it, and fsyncs. It returns
// only after the frame is durable; the caller applies the mutations to
// live state afterwards (log-then-apply), so every synced log prefix
// corresponds exactly to an acked engine state.
func (l *Log) Append(rec Record) error {
	frame := encodeFrame(rec)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("wal: log broken by earlier failure: %w", l.broken)
	}
	if in := l.faults.Load(); in != nil {
		if err := in.Hit(fault.SiteWALAppend); err != nil {
			l.broken = err
			return err
		}
	}
	if err := l.dev.Write(frame); err != nil {
		l.broken = err
		return err
	}
	if in := l.faults.Load(); in != nil {
		if err := in.Hit(fault.SiteWALSync); err != nil {
			l.broken = err
			return err
		}
	}
	if err := l.dev.Sync(); err != nil {
		l.broken = err
		return err
	}
	return nil
}

// ---- frame codec ----
//
// frame   := len u32le | crc u32le | payload   (crc is IEEE over payload)
// payload := kind byte | body
// DML body := uvarint len(table) | table
//             | uvarint nMuts | mut*
// mut     := op byte
//            | insert: uvarint len(rec) | rec
//            | delete: page u32le | slot u16le
//            | update: page u32le | slot u16le | uvarint len(rec) | rec
// DDL body := statement text (rest of payload)

const (
	frameHeader = 8
	ridLen      = 6 // page u32le | slot u16le
)

// encodeFrame writes rec's frame into one buffer, sized up front: the
// payload goes in after a blank header, which is filled in last.
func encodeFrame(rec Record) []byte {
	frame := make([]byte, frameHeader, frameHeader+payloadLen(rec))
	frame = append(frame, byte(rec.Kind))
	switch rec.Kind {
	case RecordDDL:
		frame = append(frame, rec.DDL...)
	case RecordDML:
		frame = binary.AppendUvarint(frame, uint64(len(rec.Table)))
		frame = append(frame, rec.Table...)
		frame = binary.AppendUvarint(frame, uint64(len(rec.Muts)))
		for _, m := range rec.Muts {
			frame = append(frame, byte(m.Op))
			switch m.Op {
			case OpInsert:
				frame = binary.AppendUvarint(frame, uint64(len(m.Rec)))
				frame = append(frame, m.Rec...)
			case OpDelete:
				frame = appendRID(frame, m.RID)
			case OpUpdate:
				frame = appendRID(frame, m.RID)
				frame = binary.AppendUvarint(frame, uint64(len(m.Rec)))
				frame = append(frame, m.Rec...)
			}
		}
	}
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return frame
}

// payloadLen is the length of the payload encodeFrame writes for rec.
func payloadLen(rec Record) int {
	n := 1
	switch rec.Kind {
	case RecordDDL:
		n += len(rec.DDL)
	case RecordDML:
		n += uvarintLen(len(rec.Table)) + len(rec.Table) + uvarintLen(len(rec.Muts))
		for _, m := range rec.Muts {
			n++
			switch m.Op {
			case OpInsert:
				n += uvarintLen(len(m.Rec)) + len(m.Rec)
			case OpDelete:
				n += ridLen
			case OpUpdate:
				n += ridLen + uvarintLen(len(m.Rec)) + len(m.Rec)
			}
		}
	}
	return n
}

func uvarintLen(x int) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], uint64(x))
}

func appendRID(b []byte, rid storage.RID) []byte {
	b = binary.LittleEndian.AppendUint32(b, rid.Page)
	return binary.LittleEndian.AppendUint16(b, rid.Slot)
}

// decodeFrame parses one frame from the front of b. ok is false when b
// holds no complete, checksum-valid frame (torn tail or corruption).
func decodeFrame(b []byte) (Record, int, bool) {
	if len(b) < frameHeader {
		return Record{}, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(b[0:4]))
	crc := binary.LittleEndian.Uint32(b[4:8])
	if plen < 1 || len(b) < frameHeader+plen {
		return Record{}, 0, false
	}
	payload := b[frameHeader : frameHeader+plen]
	if crc32.ChecksumIEEE(payload) != crc {
		return Record{}, 0, false
	}
	rec, ok := decodePayload(payload)
	if !ok {
		return Record{}, 0, false
	}
	return rec, frameHeader + plen, true
}

func decodePayload(p []byte) (Record, bool) {
	kind := RecordKind(p[0])
	body := p[1:]
	switch kind {
	case RecordDDL:
		return Record{Kind: RecordDDL, DDL: string(body)}, true
	case RecordDML:
		rec := Record{Kind: RecordDML}
		tlen, n := binary.Uvarint(body)
		if n <= 0 || uint64(len(body)-n) < tlen {
			return Record{}, false
		}
		body = body[n:]
		rec.Table = string(body[:tlen])
		body = body[tlen:]
		nm, n := binary.Uvarint(body)
		if n <= 0 {
			return Record{}, false
		}
		body = body[n:]
		for i := uint64(0); i < nm; i++ {
			if len(body) < 1 {
				return Record{}, false
			}
			m := Mutation{Op: MutOp(body[0])}
			body = body[1:]
			var ok bool
			switch m.Op {
			case OpInsert:
				if m.Rec, body, ok = takeBytes(body); !ok {
					return Record{}, false
				}
			case OpDelete:
				if m.RID, body, ok = takeRID(body); !ok {
					return Record{}, false
				}
			case OpUpdate:
				if m.RID, body, ok = takeRID(body); !ok {
					return Record{}, false
				}
				if m.Rec, body, ok = takeBytes(body); !ok {
					return Record{}, false
				}
			default:
				return Record{}, false
			}
			rec.Muts = append(rec.Muts, m)
		}
		if len(body) != 0 {
			return Record{}, false
		}
		return rec, true
	}
	return Record{}, false
}

func takeBytes(b []byte) ([]byte, []byte, bool) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return nil, nil, false
	}
	out := append([]byte(nil), b[n:n+int(l)]...)
	return out, b[n+int(l):], true
}

func takeRID(b []byte) (storage.RID, []byte, bool) {
	if len(b) < ridLen {
		return storage.RID{}, nil, false
	}
	rid := storage.RID{
		Page: binary.LittleEndian.Uint32(b[0:4]),
		Slot: binary.LittleEndian.Uint16(b[4:6]),
	}
	return rid, b[ridLen:], true
}
