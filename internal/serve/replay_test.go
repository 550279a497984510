package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"braidio/internal/units"
)

// captureSession runs a deterministic multi-epoch session with a
// journal attached and returns the captured JSONL.
func captureSession(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := testConfig(nil)
	cfg.Workers = workers
	e := NewEngine(cfg)
	var buf bytes.Buffer
	j := NewJournal(&buf, e.Config())
	e.AttachJournal(j)

	for i := 0; i < 24; i++ {
		if err := e.Register(fmt.Sprintf("dev-%02d", i), units.Joule(0.4+0.07*float64(i)), units.Meter(0.6+0.12*float64(i))); err != nil {
			t.Fatalf("register: %v", err)
		}
	}
	mustEpoch(t, e)

	for round := 0; round < 3; round++ {
		for i := round; i < 24; i += 3 {
			// Rotate through drifts: past tolerance, within, past.
			energy := 0.4 + 0.07*float64(i)
			if i%2 == 0 {
				energy /= 2
			} else {
				energy *= 1.01
			}
			if err := e.Update(fmt.Sprintf("dev-%02d", i), units.Joule(energy), units.Meter(0.6+0.12*float64(i))); err != nil {
				t.Fatalf("update: %v", err)
			}
		}
		if round == 1 {
			if err := e.SetHubEnergy(6); err != nil {
				t.Fatalf("hub: %v", err)
			}
		}
		mustEpoch(t, e)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	return buf.Bytes()
}

// TestReplayBitIdentity captures a session and replays it: every epoch
// digest must match the live run's.
func TestReplayBitIdentity(t *testing.T) {
	journal := captureSession(t, 4)
	res, err := Replay(bytes.NewReader(journal))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Epochs != 4 || res.Matched != 4 {
		t.Fatalf("replayed %d epochs, matched %d, want 4/4", res.Epochs, res.Matched)
	}
	if res.Ops != 24+24+1 {
		t.Fatalf("replayed %d ops, want 49", res.Ops)
	}
}

// TestReplayWorkerInvariance captures at one worker count and replays
// what is byte-identical journalling from another — the digests in the
// journal itself must already agree, and replay (at default workers)
// must match both.
func TestReplayWorkerInvariance(t *testing.T) {
	j1 := captureSession(t, 1)
	j8 := captureSession(t, 8)
	if !bytes.Equal(j1, j8) {
		t.Fatal("journals differ across worker counts")
	}
	if _, err := Replay(bytes.NewReader(j1)); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// TestReplayDetectsTampering flips one digest nibble — re-framing the
// line with a freshly computed CRC, so the checksum passes and the
// semantic digest comparison is what must catch it — and checks the
// replay reports divergence.
func TestReplayDetectsTampering(t *testing.T) {
	journal := string(captureSession(t, 2))
	lines := strings.Split(strings.TrimRight(journal, "\n"), "\n")
	tampered := -1
	for i, l := range lines {
		if !strings.Contains(l, `"digest":"`) {
			continue
		}
		pos := strings.Index(l, `"digest":"`) + len(`"digest":"`)
		flipped := byte('0')
		if l[pos] == '0' {
			flipped = '1'
		}
		payload := []byte(l[frameLen:pos] + string(flipped) + l[pos+1:])
		lines[i] = strings.TrimSuffix(string(frameLine(payload)), "\n")
		tampered = i
	}
	if tampered < 0 {
		t.Fatal("no digest in journal")
	}
	in := strings.Join(lines, "\n") + "\n"
	if _, err := Replay(strings.NewReader(in)); err == nil {
		t.Fatal("replay accepted a tampered digest")
	} else if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestReplayDetectsCRCCorruption flips a payload byte mid-file without
// fixing the frame: the CRC must catch it, and because valid records
// follow, it is corruption (hard error), not a tolerated torn tail.
func TestReplayDetectsCRCCorruption(t *testing.T) {
	journal := captureSession(t, 2)
	lines := bytes.Split(bytes.TrimRight(journal, "\n"), []byte("\n"))
	if len(lines) < 3 {
		t.Fatal("journal too short")
	}
	mid := lines[len(lines)/2]
	mid[frameLen] ^= 0x01 // first payload byte
	in := append(bytes.Join(lines, []byte("\n")), '\n')
	_, err := Replay(bytes.NewReader(in))
	if err == nil {
		t.Fatal("replay accepted a CRC-corrupt record with valid history after it")
	}
	if !strings.Contains(err.Error(), "crc mismatch") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestReplayToleratesCorruptFinalRecord corrupts only the last record:
// with nothing readable after it, that is indistinguishable from a torn
// tail and must be tolerated, reported in Torn.
func TestReplayToleratesCorruptFinalRecord(t *testing.T) {
	journal := captureSession(t, 2)
	trimmed := bytes.TrimRight(journal, "\n")
	corrupt := append([]byte(nil), trimmed...)
	corrupt[len(corrupt)-2] ^= 0x01
	corrupt = append(corrupt, '\n')
	res, err := Replay(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatalf("replay of journal with corrupt final record: %v", err)
	}
	if res.Torn != 1 {
		t.Fatalf("Torn = %d, want 1", res.Torn)
	}
}

// TestReplayTruncatedTail checks a journal cut after a drain marker
// (daemon killed mid-epoch) still replays cleanly.
func TestReplayTruncatedTail(t *testing.T) {
	journal := string(captureSession(t, 2))
	idx := strings.LastIndex(journal, `{"t":"epoch"`)
	if idx < 0 {
		t.Fatal("no epoch record")
	}
	res, err := Replay(strings.NewReader(journal[:idx]))
	if err != nil {
		t.Fatalf("replay of truncated journal: %v", err)
	}
	if res.Epochs != res.Matched+1 {
		t.Fatalf("epochs %d, matched %d: trailing drain should be unmatched", res.Epochs, res.Matched)
	}
}

// TestReplayRejectsGarbage checks headerless and malformed journals
// error out instead of panicking.
func TestReplayRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		`{"t":"reg","id":"x","e":1,"d":1}`,
		"not json\n",
	} {
		if _, err := Replay(strings.NewReader(in)); err == nil {
			t.Errorf("Replay(%q) accepted garbage", in)
		}
	}
}

// TestJournalConcurrentAdmissionsReplay journals a session whose
// admissions race from many goroutines. Whatever interleaving the
// journal captured is the ground truth — replay must still match every
// digest, because journal order is admission order by construction.
func TestJournalConcurrentAdmissionsReplay(t *testing.T) {
	e := NewEngine(testConfig(nil))
	var buf bytes.Buffer
	j := NewJournal(&buf, e.Config())
	e.AttachJournal(j)

	const writers, perWriter = 6, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := e.Register(id, 1.0, units.Meter(0.5+0.1*float64(i%30))); err != nil {
					t.Errorf("register: %v", err)
					return
				}
				if err := e.Update(id, 0.5, units.Meter(0.5+0.1*float64(i%30))); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	epochs := 1
loop:
	for {
		mustEpoch(t, e)
		select {
		case <-done:
			mustEpoch(t, e)
			epochs++
			break loop
		default:
			epochs++
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	res, err := Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Matched != epochs {
		t.Fatalf("matched %d epochs, want %d", res.Matched, epochs)
	}
	if res.Ops != writers*perWriter*2 {
		t.Fatalf("replayed %d ops, want %d", res.Ops, writers*perWriter*2)
	}
}

// TestReplayRejectsRenumberedDrain renumbers one drain of a captured
// single-stream journal and re-frames it with a valid CRC: Replay must
// check drain numbering exactly as directory recovery does, not re-run
// the epoch under the wrong number.
func TestReplayRejectsRenumberedDrain(t *testing.T) {
	journal, err := os.ReadFile(filepath.Join("testdata", "pr7_single_stream.journal"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(journal), "\n"), "\n")
	renumbered := -1
	for i, l := range lines {
		if l[frameLen:] == `{"t":"drain","epoch":2}` {
			lines[i] = strings.TrimSuffix(string(frameLine([]byte(`{"t":"drain","epoch":7}`))), "\n")
			renumbered = i
		}
	}
	if renumbered < 0 {
		t.Fatal("no epoch-2 drain in the fixture")
	}
	res, err := Replay(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err == nil {
		t.Fatalf("Replay accepted a renumbered drain: %+v", res)
	}
	if want := fmt.Sprintf("journal line %d: drain epoch 7, want 2", renumbered+1); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
	if res.Matched != 1 {
		t.Fatalf("Matched = %d before the renumbered drain, want 1", res.Matched)
	}
}

// TestJournalConcurrentBodiesReplay races batched /v1/register and
// /v1/update bodies from several goroutines against running epochs
// (whose drain routes into the shards inside the admission lock) and
// plan reads on a 4-shard engine. Each body is admitted in one pass, so
// the journal holds every body's ops contiguously, and replay must match
// every digest.
func TestJournalConcurrentBodiesReplay(t *testing.T) {
	cfg := testConfig(nil)
	cfg.Shards = 4
	e := NewEngine(cfg)
	var buf bytes.Buffer
	j := NewJournal(&buf, e.Config())
	e.AttachJournal(j)
	h := (&Server{Engine: e}).Handler()

	const writers, bodies, perBody = 4, 5, 20
	post := func(path string, reqs []DeviceRequest) error {
		body, err := json.Marshal(reqs)
		if err != nil {
			return err
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusAccepted {
			return fmt.Errorf("POST %s: %d %s", path, w.Code, w.Body)
		}
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < bodies; b++ {
				reqs := make([]DeviceRequest, perBody)
				for i := range reqs {
					reqs[i] = DeviceRequest{ID: fmt.Sprintf("w%d-%d-%d", w, b, i), EnergyJ: 1, DistanceM: 0.5 + 0.1*float64(i)}
				}
				if err := post("/v1/register", reqs); err != nil {
					t.Error(err)
					return
				}
				for i := range reqs {
					reqs[i].EnergyJ = 0.5
				}
				if err := post("/v1/update", reqs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-done:
				return
			default:
				e.PlanFor("w0-0-0")
			}
		}
	}()
	epochs := 0
loop:
	for {
		mustEpoch(t, e)
		epochs++
		select {
		case <-done:
			mustEpoch(t, e)
			epochs++
			break loop
		default:
		}
	}
	<-readerDone
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Each body's ops sit contiguously in the journal.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for i := 1; i < len(lines); i++ {
		rec, err := decodeJournalLine([]byte(lines[i]), false)
		if err != nil {
			t.Fatal(err)
		}
		var w, b, k int
		if _, err := fmt.Sscanf(rec.ID, "w%d-%d-%d", &w, &b, &k); err != nil || k != 0 {
			continue
		}
		for k = 1; k < perBody; k++ {
			next, err := decodeJournalLine([]byte(lines[i+k]), false)
			if err != nil || next.T != rec.T || next.ID != fmt.Sprintf("w%d-%d-%d", w, b, k) {
				t.Fatalf("line %d: body %s %s interleaved with %+v", i+k+1, rec.T, rec.ID, next)
			}
		}
	}

	res, err := Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Matched != epochs || res.Ops != writers*bodies*perBody*2 {
		t.Fatalf("replay matched %d epochs over %d ops, want %d over %d", res.Matched, res.Ops, epochs, writers*bodies*perBody*2)
	}
}
