// Journal capture and deterministic replay. A journal is a stream of
// CRC-framed JSONL records (see segment.go): one header record, then
// admitted operations interleaved with epoch boundaries. Operation
// records are written inside the admission queue's critical section, so
// journal order IS admission order; the "drain" marker is written in
// the same critical section that empties the queue, so replay knows
// exactly which operations each epoch saw. The "epoch" record that
// follows carries the plan digest the live run produced — Replay
// re-runs the batch planner over the journaled operations and demands
// the digests match bit for bit.
//
// Two storage modes share this encoder. Writer mode (NewJournal /
// NewJournalFile) appends a single stream headed by a "config" record.
// Directory mode (serve.Open) writes snapshot-headed segments with
// rotation and compaction; see segment.go and recover.go.
//
// Unlike the pre-durability journal, write failures are not silently
// deferred to Close: the first error is sticky, Err surfaces it to
// /healthz and Stats, every subsequently dropped record bumps the
// journal-error counter, and with Config.JournalFailStop the engine
// sheds admissions (503) rather than admit operations it cannot make
// durable.

package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"

	"braidio/internal/obs"
	"braidio/internal/units"
)

// record is the single flat JSONL record shape; T discriminates.
type record struct {
	T string `json:"t"` // record type

	// op fields (t = "reg" | "upd" | "hub")
	ID string  `json:"id,omitempty"`
	E  float64 `json:"e,omitempty"` // member energy, joules (hub energy for "hub")
	D  float64 `json:"d,omitempty"` // link distance, meters

	// epoch fields (t = "drain" | "epoch")
	Epoch   uint64 `json:"epoch,omitempty"`
	Planned int    `json:"planned,omitempty"` // EpochResult.Planned
	Clean   int    `json:"clean,omitempty"`   // EpochResult.Clean
	Members int    `json:"members,omitempty"` // EpochResult.Members
	Digest  string `json:"digest,omitempty"`  // EpochResult.Digest

	// config fields (t = "config")
	RatioTol float64 `json:"ratio_tol,omitempty"`
	DistTol  float64 `json:"dist_tol,omitempty"`  // Config.DistanceTolerance
	Window   int     `json:"window,omitempty"`    // Config.Window
	HubJ     float64 `json:"hub_j,omitempty"`     // Config.HubEnergy
	FadeDB   float64 `json:"fade_db,omitempty"`   // Config.FadeMargin
	Payload  int     `json:"payload,omitempty"`   // Config.PayloadLen
	QueueCap int     `json:"queue_cap,omitempty"` // Config.QueueCap

	// snapshot payload (t = "snap"; segment heads only)
	Snap *snapshotRecord `json:"snap,omitempty"`
}

// JournalOptions tune the durability layer; the zero value is a safe
// default (no fsync, 16-epoch snapshots in directory mode, keep no
// pre-snapshot segments).
type JournalOptions struct {
	// Sync is the fsync policy; see SyncPolicy.
	Sync SyncPolicy
	// SnapshotEvery is the epoch interval between snapshots (and the
	// segment rotations they trigger) in directory mode; 0 selects 16.
	SnapshotEvery uint64
	// Retain keeps that many pre-snapshot segments past compaction
	// (0 deletes everything older than the newest snapshot).
	Retain int
	// Rec receives the durability counters (snapshots, rotations, torn
	// records, journal errors); nil disables recording.
	Rec *obs.Recorder
}

func (o JournalOptions) withDefaults() JournalOptions {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 16
	}
	if o.Retain < 0 {
		o.Retain = 0
	}
	return o
}

// Journal captures a session for replay and recovery. Safe for
// concurrent writers; the engine calls it from inside its
// admission-queue critical section so record order matches admission
// order.
type Journal struct {
	mu  sync.Mutex
	w   *bufio.Writer
	f   *os.File // fsync target; nil for plain writers
	err error

	policy SyncPolicy
	rec    *obs.Recorder
	// line is opLocked's reused buffer: one framed op record.
	line []byte

	// directory mode (nil dir = single-stream writer mode)
	dir      string
	idx      int
	every    uint64
	retain   int
	ownsFile bool
}

// NewJournal starts a single-stream journal on w by writing the engine
// config header. Records are CRC-framed but never fsynced (w need not
// be a file); use NewJournalFile for a durable single-file capture or
// Open for the segmented directory form.
func NewJournal(w io.Writer, cfg Config) *Journal {
	j := &Journal{w: bufio.NewWriterSize(w, 1<<16)}
	j.writeConfigHeader(cfg)
	return j
}

// NewJournalFile starts a single-file journal on f with a sync policy.
// The journal does not take ownership of f: Close flushes and fsyncs
// but leaves closing the descriptor to the caller.
func NewJournalFile(f *os.File, cfg Config, opts JournalOptions) *Journal {
	j := &Journal{w: bufio.NewWriterSize(f, 1<<16), f: f, policy: opts.Sync, rec: opts.Rec}
	j.writeConfigHeader(cfg)
	return j
}

func (j *Journal) writeConfigHeader(cfg Config) {
	j.write(record{
		T: "config", RatioTol: cfg.RatioTolerance, DistTol: cfg.DistanceTolerance,
		Window: cfg.Window, HubJ: float64(cfg.HubEnergy), FadeDB: float64(cfg.FadeMargin),
		Payload: cfg.PayloadLen, QueueCap: cfg.QueueCap,
	})
}

// fail records the journal's first error; dropped counts every record
// lost to it. Both feed the journal-error counter so a broken journal
// is visible in /metrics long before Close.
func (j *Journal) fail(err error) {
	if j.err == nil {
		j.err = err
	}
	if j.rec != nil {
		j.rec.ServeJournalErrors.Add(1)
	}
}

func (j *Journal) write(r record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.writeLocked(r)
}

func (j *Journal) writeLocked(r record) {
	if j.dropped() {
		return
	}
	b, err := json.Marshal(r)
	if err != nil {
		j.fail(err)
		return
	}
	j.putLocked(frameLine(b))
}

// dropped reports whether the journal has failed, counting the record
// the caller is about to drop; the first error stays sticky.
func (j *Journal) dropped() bool {
	if j.err == nil {
		return false
	}
	if j.rec != nil {
		j.rec.ServeJournalErrors.Add(1)
	}
	return true
}

// putLocked writes one framed line, fsyncing it under SyncAlways.
func (j *Journal) putLocked(line []byte) {
	if _, err := j.w.Write(line); err != nil {
		j.fail(err)
		return
	}
	if j.policy == SyncAlways {
		j.syncLocked()
	}
}

// syncLocked flushes the buffer and, when file-backed, fsyncs.
func (j *Journal) syncLocked() {
	if j.err != nil {
		return
	}
	if err := j.w.Flush(); err != nil {
		j.fail(err)
		return
	}
	if j.f != nil {
		if err := j.f.Sync(); err != nil {
			j.fail(err)
		}
	}
}

// Err returns the journal's first write/sync error, or nil. A non-nil
// value means records have been dropped: the capture is no longer a
// faithful prefix of the admission stream, /healthz reports it, and a
// fail-stop engine sheds admissions until restarted.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and fsyncs buffered records and returns the first
// error. Directory-mode journals also close their segment file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncLocked()
	if j.ownsFile && j.f != nil {
		if err := j.f.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.f = nil
	}
	return j.err
}

// opLocked writes one admitted op's record. The admission path holds
// j.mu for a whole request body. The record is appended by hand into
// the journal's line buffer and framed in place, with no per-op
// allocation; appendOpRecord spells it byte for byte as json.Marshal
// would, and the ids and values it declines go through json.Marshal.
func (j *Journal) opLocked(o *op) {
	if j.dropped() {
		return
	}
	t, e, d := o.wireType(), float64(o.energy), float64(o.distance)
	line, ok := appendOpRecord(append(j.line[:0], framePad...), t, o.id, e, d)
	if !ok {
		j.writeLocked(record{T: t, ID: o.id, E: e, D: d})
		return
	}
	j.line = frameInPlace(line)
	j.putLocked(j.line)
}

// appendOpRecord appends the op record {t, id, e, d} to dst exactly as
// json.Marshal(record{T: t, ID: id, E: e, D: d}) spells it: omitempty
// drops an empty id and zero values, and floats take encoding/json's
// ES6 form. t must be a wire type tag. ok is false when id holds a byte
// json.Marshal would escape (a control byte below 0x20, '"', '\', or
// the HTML-escaped '<', '>' and '&'), any non-ASCII byte, or a value is
// non-finite; dst is then unspecified and the caller marshals the
// record instead.
func appendOpRecord(dst []byte, t, id string, e, d float64) ([]byte, bool) {
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return dst, false
		}
	}
	if !finite(e) || !finite(d) {
		return dst, false
	}
	dst = append(dst, `{"t":"`...)
	dst = append(dst, t...)
	dst = append(dst, '"')
	if id != "" {
		dst = append(dst, `,"id":"`...)
		dst = append(dst, id...)
		dst = append(dst, '"')
	}
	if e != 0 {
		dst = appendJSONFloat(append(dst, `,"e":`...), e)
	}
	if d != 0 {
		dst = appendJSONFloat(append(dst, `,"d":`...), d)
	}
	return append(dst, '}'), true
}

func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// appendJSONFloat appends a finite float64 as encoding/json does: the
// shortest round-trip digits, in exponent form below 1e-6 or from 1e21
// up, with a one-digit negative exponent unpadded (1e-07 → 1e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

func (j *Journal) drain(epoch uint64) {
	j.write(record{T: "drain", Epoch: epoch})
}

func (j *Journal) epoch(res EpochResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.writeLocked(record{
		T: "epoch", Epoch: res.Epoch, Planned: res.Planned,
		Clean: res.Clean, Members: res.Members, Digest: res.Digest,
	})
	if j.policy == SyncEpoch {
		// The epoch boundary is the durability point: the fsync covers
		// this epoch's operations, drain marker, and digest at once.
		j.syncLocked()
	}
}

// wantSnapshot reports whether the epoch boundary just recorded should
// trigger a snapshot + rotation (directory mode only).
func (j *Journal) wantSnapshot(epoch uint64) bool {
	return j.dir != "" && j.every > 0 && epoch%j.every == 0
}

// snapshotRotate seals the current segment, starts the next one with
// snap as its head record, makes it durable, and compacts segments
// older than the new snapshot. The write ordering is the crash-safety
// argument: the old segment is flushed and fsynced first, the new head
// is fsynced before any deletion, so at every instant the directory
// holds at least one intact recovery chain.
func (j *Journal) snapshotRotate(snap *snapshotRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dir == "" || j.dropped() {
		return
	}
	// Seal the current segment (nil on the very first rotation).
	if j.f != nil {
		j.syncLocked()
		if j.err != nil {
			return
		}
	}
	next := j.idx + 1
	f, err := createSegment(j.dir, next)
	if err != nil {
		j.fail(err)
		return
	}
	old := j.f
	j.f = f
	j.w = bufio.NewWriterSize(f, 1<<16)
	j.idx = next
	j.writeLocked(record{T: "snap", Snap: snap})
	j.syncLocked()
	if j.err != nil {
		return
	}
	if old != nil {
		if err := old.Close(); err != nil {
			j.fail(err)
			return
		}
	}
	if _, err := removeSegmentsBelow(j.dir, next-j.retain); err != nil {
		j.fail(err)
		return
	}
	if j.rec != nil {
		j.rec.ServeSnapshots.Add(1)
		j.rec.ServeRotations.Add(1)
	}
}

// ReplayResult summarizes a verified replay.
type ReplayResult struct {
	Epochs  int // epoch boundaries re-run
	Ops     int // operations re-admitted
	Matched int // epoch digests compared against the journal
	Torn    int // torn trailing records tolerated (crash mid-write)
}

// replayMaxLine bounds a single journal line in Replay. Snapshot-free
// single-stream journals hold small records, so the bound mostly guards
// memory against corrupt or non-journal input.
const replayMaxLine = 1 << 20

// Replay reads a captured single-stream journal, rebuilds a fresh
// engine from its config header, re-admits every operation, re-runs
// every epoch at the journaled boundaries, and verifies each recomputed
// plan digest against the captured one. Any divergence — digest,
// planned count, membership, or drain numbering — is an error, as is a
// corrupt record with valid records after it. A torn tail — a
// trailing partial record, or a trailing drain with no epoch record
// (daemon killed mid-epoch) — is tolerated. Records are CRC-verified
// when framed; bare legacy JSONL lines are accepted for pre-CRC
// captures. The records after the header replay through replayTail,
// the loop directory recovery uses.
func Replay(r io.Reader) (ReplayResult, error) {
	return replayWith(r, Config{})
}

// replayWith is Replay with operational overrides: the replaying
// engine's worker and shard counts come from operational (zero values
// keep the defaults). Planner-semantic fields still come from the
// journal's config header — they are what digest fidelity depends on;
// workers and shards, by the determinism contract, cannot change a bit.
func replayWith(r io.Reader, operational Config) (ReplayResult, error) {
	lr := newLineReader(r, replayMaxLine)
	var res ReplayResult
	data, _, err := lr.read()
	for err == nil && len(data) == 0 {
		data, _, err = lr.read()
	}
	if err == io.EOF {
		return res, fmt.Errorf("serve: empty journal")
	}
	if err != nil {
		return res, err
	}
	head, err := decodeJournalLine(data, true)
	if err != nil {
		return res, fmt.Errorf("serve: journal line %d: config header: %w", lr.line, err)
	}
	if head.T != "config" {
		return res, fmt.Errorf("serve: journal line %d: want config header, got %q", lr.line, head.T)
	}
	eng := NewEngine(Config{
		Workers:           operational.Workers,
		Shards:            operational.Shards,
		RatioTolerance:    head.RatioTol,
		DistanceTolerance: head.DistTol,
		Window:            head.Window,
		HubEnergy:         units.Joule(head.HubJ),
		FadeMargin:        units.DB(head.FadeDB),
		PayloadLen:        head.Payload,
		QueueCap:          head.QueueCap,
	})
	tail, err := replayTail(eng, lr, "journal", true)
	res.Epochs, res.Ops, res.Matched = tail.epochs, tail.ops, tail.matched
	if tail.torn {
		res.Torn++
	}
	return res, err
}

// tailTally is what replayTail did: operations re-admitted, drains
// re-run with their digests, epoch records matched, and where a torn
// tail began.
type tailTally struct {
	ops, epochs, matched int
	digests              []string
	// torn reports a tolerated torn tail starting at byte offset tornOff.
	torn    bool
	tornOff int64
}

// replayTail is the one replay loop behind Replay and directory
// recovery. It runs after the head (Replay's config header, a segment's
// snapshot) has built eng: it re-admits every record in journal order,
// re-runs the epoch at each drain — whose number must be the engine's
// next epoch — and demands that each epoch record match the recomputed
// digest, planned count and membership bit for bit. A corrupt record
// with nothing readable after it is a torn tail (crash mid-write) and
// ends the replay cleanly; one with valid records after it is
// pre-crash corruption and an error. where names the stream in errors;
// allowLegacy accepts bare unframed lines (see decodeJournalLine).
func replayTail(eng *Engine, lr *lineReader, where string, allowLegacy bool) (tailTally, error) {
	var t tailTally
	var pending *EpochResult
	for {
		data, _, err := lr.read()
		if err == io.EOF {
			return t, nil
		}
		line := lr.line
		if err != nil {
			return t, fmt.Errorf("serve: %s line %d: %w", where, line, err)
		}
		if len(data) == 0 {
			continue
		}
		rec, err := decodeJournalLine(data, allowLegacy)
		if err != nil {
			off := lr.off
			if _, _, nerr := lr.read(); nerr == io.EOF {
				t.torn, t.tornOff = true, off
				return t, nil
			}
			return t, fmt.Errorf("serve: %s line %d: corrupt record with valid records after it: %w", where, line, err)
		}
		switch rec.T {
		case "reg":
			err = eng.Register(rec.ID, units.Joule(rec.E), units.Meter(rec.D))
			t.ops++
		case "upd":
			err = eng.Update(rec.ID, units.Joule(rec.E), units.Meter(rec.D))
			t.ops++
		case "hub":
			err = eng.SetHubEnergy(units.Joule(rec.E))
			t.ops++
		case "drain":
			if want := eng.Stats().Epoch + 1; rec.Epoch != want {
				return t, fmt.Errorf("serve: %s line %d: drain epoch %d, want %d", where, line, rec.Epoch, want)
			}
			got, _ := eng.RunEpoch() // solve errors are part of the digest
			pending = &got
			t.epochs++
			t.digests = append(t.digests, got.Digest)
		case "epoch":
			if pending == nil {
				return t, fmt.Errorf("serve: %s line %d: epoch record with no preceding drain", where, line)
			}
			if pending.Digest != rec.Digest {
				return t, fmt.Errorf("serve: epoch %d diverged: recomputed digest %s, journal %s",
					rec.Epoch, pending.Digest, rec.Digest)
			}
			if pending.Planned != rec.Planned || pending.Members != rec.Members {
				return t, fmt.Errorf("serve: epoch %d diverged: recomputed planned %d/%d members, journal %d/%d",
					rec.Epoch, pending.Planned, pending.Members, rec.Planned, rec.Members)
			}
			pending = nil
			t.matched++
		case "snap":
			return t, fmt.Errorf("serve: %s line %d: unexpected snapshot record after the head", where, line)
		default:
			return t, fmt.Errorf("serve: %s line %d: unknown record type %q", where, line, rec.T)
		}
		if errors.Is(err, ErrShed) {
			return t, fmt.Errorf("serve: %s line %d: admission shed during replay — raise the queue cap to at least the capture's: %w", where, line, err)
		}
		if err != nil {
			return t, fmt.Errorf("serve: %s line %d: %w", where, line, err)
		}
	}
}

// decodeJournalLine validates the CRC frame (when present) and
// unmarshals the record. allowLegacy accepts bare unframed JSON lines —
// single-file Replay keeps old captures readable; segment recovery is
// strict, since every segment record was written framed.
func decodeJournalLine(data []byte, allowLegacy bool) (record, error) {
	payload, framed, err := unframeLine(data)
	if err != nil {
		return record{}, err
	}
	if !framed {
		if !allowLegacy {
			return record{}, fmt.Errorf("unframed record in segmented journal")
		}
		payload = data
	}
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return record{}, err
	}
	return rec, nil
}
