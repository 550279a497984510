package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecoverSegment holds startup recovery to its contract on a
// damaged segment head: flip or delete one byte of the head snapshot
// line of the newest segment of a valid journal directory, then
// VerifyDir and Open it. Both must return an error or a recovered
// state — never panic — and they must agree. A recovered engine must be
// a digest-verified prefix of the uninterrupted run: driven through the
// rest of the schedule it reaches the reference final digest. The
// directory is either one genesis segment (a damaged head leaves
// nothing to recover from) or rotated segments with history retained
// (recovery falls back to the previous segment).
func FuzzRecoverSegment(f *testing.F) {
	refDigest, _ := soakReference(f)
	var segs [2][][]byte // [multi][segment] file bytes, in index order
	var idx [2][]int
	for i, dir := range []string{captureSoakDir(f, 1<<40, 0), captureSoakDir(f, 2, 100)} {
		infos, err := listSegments(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, s := range infos {
			data, err := os.ReadFile(s.path)
			if err != nil {
				f.Fatal(err)
			}
			segs[i] = append(segs[i], data)
			idx[i] = append(idx[i], s.idx)
		}
	}
	for _, multi := range []bool{false, true} {
		f.Add(uint16(0), byte(0x01), false, multi)      // first CRC digit
		f.Add(uint16(8), byte(0x01), false, multi)      // frame separator
		f.Add(uint16(9), byte(0x20), false, multi)      // first payload byte
		f.Add(uint16(40), byte(0x00), true, multi)      // payload byte deleted
		f.Add(uint16(0xffff), byte(0x0a), false, multi) // wraps onto the head line
		f.Add(uint16(3), byte('a'^'A'), false, multi)   // CRC digit case
		f.Add(uint16(200), byte(0x80), false, multi)    // non-ASCII payload byte
		f.Add(uint16(0xfffe), byte(0x00), true, multi)  // another deletion
	}
	ops := soakSchedule()
	f.Fuzz(func(t *testing.T, pos uint16, flip byte, del, multi bool) {
		m := 0
		if multi {
			m = 1
		}
		newest := segs[m][len(segs[m])-1]
		headLen := bytes.IndexByte(newest, '\n') + 1
		at := int(pos) % headLen
		mutated := append([]byte(nil), newest...)
		if del {
			mutated = append(mutated[:at], mutated[at+1:]...)
		} else {
			mutated[at] ^= flip
		}
		dir := filepath.Join(t.TempDir(), "journal.d")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, data := range segs[m] {
			if i == len(segs[m])-1 {
				data = mutated
			}
			if err := os.WriteFile(segPath(dir, idx[m][i]), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		_, verr := VerifyDir(dir)
		eng, j, _, oerr := Open(dir, testConfig(nil), JournalOptions{SnapshotEvery: 1 << 40})
		if (verr == nil) != (oerr == nil) {
			t.Fatalf("VerifyDir error %v but Open error %v", verr, oerr)
		}
		if oerr != nil {
			return
		}
		defer j.Close()
		if err := driveSoakE(eng, ops, int(eng.Stats().Admitted)); err != nil {
			t.Fatalf("continuation after recovery: %v", err)
		}
		got, err := soakFinalDigestE(eng)
		if err != nil {
			t.Fatal(err)
		}
		if got != refDigest {
			t.Fatalf("recovered run ends at digest %s, want %s", got, refDigest)
		}
	})
}
