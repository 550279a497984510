// Startup recovery for segmented journals: restore the newest intact
// snapshot, replay the segment tail re-verifying every epoch digest bit
// for bit, truncate a crash-torn tail, and hand back a ready engine
// with a fresh snapshot-headed segment attached.
//
// Recovery state machine:
//
//	scan segments ──► pick base: newest segment with a valid snapshot
//	      │            head (a torn head is tolerated only on the
//	      │            newest segment — rotation fsyncs a head before
//	      │            deleting anything older, so a crash can tear at
//	      │            most the newest; anything else is bit rot and a
//	      │            hard error)
//	      ▼
//	restore snapshot ─► membership + plans + hub budget + epoch counter
//	      ▼              + pending queue + admitted-op count
//	replay tail ──────► re-admit ops in journal order; at each drain,
//	      │             re-run the epoch and demand the journaled digest
//	      │             matches the recomputed one bit for bit
//	      ▼
//	torn tail ────────► first partial/corrupt record with nothing
//	      │             readable after it: truncate (count records and
//	      │             bytes); a corrupt record with valid records
//	      │             after it is pre-crash corruption — hard error
//	      ▼
//	rotate ───────────► write a fresh snapshot of the recovered state as
//	                    the head of a new segment, compact older ones

package serve

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// RecoveryStats reports what startup recovery found and did.
type RecoveryStats struct {
	// Segments is how many segment files the directory held at startup;
	// BaseSegment is the index recovery restored from.
	Segments    int `json:"segments"`
	BaseSegment int `json:"base_segment"` // see Segments
	// SnapshotEpoch and SnapshotMembers describe the restored snapshot.
	SnapshotEpoch   uint64 `json:"snapshot_epoch"`
	SnapshotMembers int    `json:"snapshot_members"` // see SnapshotEpoch
	// Ops counts post-snapshot operations replayed from the tail —
	// recovery work is proportional to this, not to history length.
	Ops int `json:"ops"`
	// Epochs counts drains re-run; Matched counts digests verified
	// bit-for-bit against journaled epoch records (Epochs can exceed
	// Matched by one when the crash cut the final epoch record).
	Epochs  int `json:"epochs"`
	Matched int `json:"matched"` // see Epochs
	// TornRecords and TornBytes quantify the truncated tail;
	// TornSegments is 1 when the newest segment's head itself was torn
	// (crash mid-rotation) and recovery fell back to the previous one.
	TornRecords  int   `json:"torn_records"`
	TornBytes    int64 `json:"torn_bytes"`    // see TornRecords
	TornSegments int   `json:"torn_segments"` // see TornRecords
	// Resumed is the epoch counter after recovery; the next epoch will
	// be Resumed+1, exactly as if the daemon had never died.
	Resumed uint64 `json:"resumed_epoch"`
	// Digests are the digests of the epochs re-run during tail replay,
	// in order — the continuity proof soak tests compare against an
	// uninterrupted reference run.
	Digests []string `json:"-"`
}

// errNoSegments distinguishes "empty directory, start fresh" from a
// recovery failure.
var errNoSegments = errors.New("serve: journal directory has no segments")

// readSegmentHead opens a segment and returns its head snapshot and a
// reader positioned at the tail. Any head defect — missing, torn,
// CRC-mismatched, or not a snapshot — is an error; the caller decides
// whether that is a tolerable torn rotation or corruption.
func readSegmentHead(seg segmentInfo) (*snapshotRecord, *os.File, *lineReader, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return nil, nil, nil, err
	}
	// Snapshot lines scale with membership (a plan per member), so the
	// cap is generous; it exists only to bound memory on garbage input.
	lr := newLineReader(f, 1<<30)
	data, complete, err := lr.read()
	if err != nil {
		f.Close()
		if err == io.EOF {
			return nil, nil, nil, fmt.Errorf("segment %s: empty", seg.path)
		}
		return nil, nil, nil, fmt.Errorf("segment %s: %w", seg.path, err)
	}
	if !complete {
		f.Close()
		return nil, nil, nil, fmt.Errorf("segment %s: torn snapshot head", seg.path)
	}
	rec, derr := decodeJournalLine(data, false)
	if derr != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("segment %s: snapshot head: %w", seg.path, derr)
	}
	if rec.T != "snap" || rec.Snap == nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("segment %s: head record is %q, want snapshot", seg.path, rec.T)
	}
	return rec.Snap, f, lr, nil
}

// recoverEngine restores an engine from the journal directory. cfg
// supplies the operational fields (Workers, QueueCap, Rec,
// JournalFailStop); planner-semantic fields come from the recovered
// snapshot. Returns errNoSegments when the directory holds no segments.
func recoverEngine(dir string, cfg Config) (*Engine, RecoveryStats, error) {
	var stats RecoveryStats
	segs, err := listSegments(dir)
	if err != nil {
		return nil, stats, err
	}
	stats.Segments = len(segs)
	if len(segs) == 0 {
		return nil, stats, errNoSegments
	}

	// Pick the recovery base: the newest segment with an intact
	// snapshot head. A torn head is a crash mid-rotation and is legal
	// only on the newest segment; rotation's write ordering (head
	// fsynced before deletions) guarantees the previous segment is
	// still whole.
	base := len(segs) - 1
	snap, f, lr, headErr := readSegmentHead(segs[base])
	if headErr != nil {
		if len(segs) < 2 {
			return nil, stats, fmt.Errorf("serve: no intact snapshot to recover from (pre-snapshot corruption): %w", headErr)
		}
		stats.TornSegments = 1
		stats.TornRecords++
		stats.TornBytes += segs[base].size
		base--
		snap, f, lr, err = readSegmentHead(segs[base])
		if err != nil {
			return nil, stats, fmt.Errorf("serve: newest segment torn (%v) and fallback also unusable (pre-snapshot corruption): %w", headErr, err)
		}
	}
	defer f.Close()
	stats.BaseSegment = segs[base].idx
	stats.SnapshotEpoch = snap.Epoch
	stats.SnapshotMembers = len(snap.Members)

	eng := NewEngine(mergeConfig(cfg, snap.Cfg))
	if err := eng.restoreSnapshot(snap); err != nil {
		return nil, stats, fmt.Errorf("serve: segment %s: %w", segs[base].path, err)
	}

	// Replay the tail. Only records in this one segment matter —
	// everything older is superseded by the snapshot, everything newer
	// (at most one torn segment) was discarded above.
	tail, err := replayTail(eng, lr, "segment "+segs[base].path, false)
	stats.Ops, stats.Epochs, stats.Matched, stats.Digests = tail.ops, tail.epochs, tail.matched, tail.digests
	if tail.torn {
		stats.TornRecords++
		stats.TornBytes += segs[base].size - tail.tornOff
	}
	if err != nil {
		return nil, stats, err
	}
	stats.Resumed = eng.Stats().Epoch
	return eng, stats, nil
}

// VerifyDir replays a journal directory read-only — the directory-mode
// analogue of Replay: restore the newest snapshot, replay the tail,
// verify every epoch digest bit for bit. Nothing is written.
func VerifyDir(dir string) (RecoveryStats, error) {
	_, stats, err := recoverEngine(dir, Config{})
	if errors.Is(err, errNoSegments) {
		return stats, fmt.Errorf("serve: %s: no journal segments to verify", dir)
	}
	if err != nil {
		return stats, err
	}
	return stats, nil
}

// Open opens (creating if needed) a segmented journal directory,
// recovers engine state from the newest snapshot plus the journal tail,
// writes a fresh snapshot of the recovered state as the head of a new
// segment, compacts, and returns the ready engine with the journal
// attached. The returned engine resumes exactly where the previous
// process stopped: same membership, same plans, same epoch counter,
// bit-identical future digests.
func Open(dir string, cfg Config, opts JournalOptions) (*Engine, *Journal, RecoveryStats, error) {
	opts = opts.withDefaults()
	if opts.Rec == nil {
		opts.Rec = cfg.Rec
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, RecoveryStats{}, err
	}
	eng, stats, err := recoverEngine(dir, cfg)
	switch {
	case errors.Is(err, errNoSegments):
		eng = NewEngine(cfg)
	case err != nil:
		return nil, nil, stats, err
	default:
		if opts.Rec != nil {
			opts.Rec.ServeRecoveries.Add(1)
			opts.Rec.ServeTornRecords.Add(uint64(stats.TornRecords))
		}
	}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, stats, err
	}
	nextAfter := -1 // rotation starts at idx+1, so -1 yields seg-0000
	if len(segs) > 0 {
		nextAfter = segs[len(segs)-1].idx
	}
	j := &Journal{
		policy: opts.Sync, rec: opts.Rec,
		dir: dir, idx: nextAfter,
		every: opts.SnapshotEvery, retain: opts.Retain,
		ownsFile: true,
	}
	// Seed the new segment with a snapshot of the recovered (or fresh)
	// state; the rotation also compacts everything it supersedes.
	eng.snapshotNow(j)
	if jerr := j.Err(); jerr != nil {
		return nil, nil, stats, fmt.Errorf("serve: starting journal segment: %w", jerr)
	}
	eng.AttachJournal(j)
	return eng, j, stats, nil
}
