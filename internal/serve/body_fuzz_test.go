package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"braidio/internal/core"
	"braidio/internal/lp"
)

// deviceSeeds are valid /v1/register and /v1/update bodies, single and
// batched, one of them out of every mode's range.
var deviceSeeds = []string{
	`{"id":"a","energy_j":1,"distance_m":1}`,
	`{"id":"b","energy_j":0.155,"distance_m":0.42000000000000004}`,
	`[{"id":"a","energy_j":1,"distance_m":1},{"id":"b","energy_j":0.5,"distance_m":2.5}]`,
	`[{"id":"c","energy_j":2e-6,"distance_m":0.3},{"id":"d","energy_j":40,"distance_m":9000}]`,
	` [ ]`,
}

// FuzzDeviceBody holds the device endpoints to their contract on
// untrusted bodies: every POST to /v1/register or /v1/update answers
// 202, 400, 413 (body over the cap) or 503 (queue full), and the epoch
// that follows returns a result or an error wrapping one of the
// solver's typed failures. Nothing panics. A single-stream journal
// captures the session, and Replay must reproduce its epoch digest —
// the replay contract held over batched admission and the journal's
// hand-appended op records on untrusted bodies. Each input posts the raw
// bytes, then a valid seed after a single-byte flip or a truncation, to
// both endpoints of a small server (8-op queue, 512-byte body cap, so
// the 413 and 503 paths are reachable).
func FuzzDeviceBody(f *testing.F) {
	for i, s := range deviceSeeds {
		f.Add([]byte(s), uint16(i*11), byte(1<<(i%8)), i%2 == 0)
	}
	f.Add([]byte(`{"id":"","energy_j":1,"distance_m":1}`), uint16(5), byte(0x20), false)
	f.Add([]byte(`{"id":"x","energy_j":-1,"distance_m":1e400}`), uint16(9), byte(0x01), true)
	f.Add([]byte("[{}, null, 3]"), uint16(0), byte(0xff), false)
	f.Fuzz(func(t *testing.T, body []byte, pos uint16, flip byte, truncate bool) {
		cfg := testConfig(nil)
		cfg.QueueCap = 8
		e := NewEngine(cfg)
		var journal bytes.Buffer
		j := NewJournal(&journal, e.Config())
		e.AttachJournal(j)
		h := (&Server{Engine: e, MaxBodyBytes: 512}).Handler()

		seed := []byte(deviceSeeds[int(pos)%len(deviceSeeds)])
		at := int(pos) % len(seed)
		if truncate {
			seed = seed[:at]
		} else {
			seed[at] ^= flip
		}
		for _, b := range [][]byte{body, seed} {
			for _, path := range []string{"/v1/register", "/v1/update"} {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
				switch w.Code {
				case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
					http.StatusServiceUnavailable:
				default:
					t.Fatalf("POST %s %q: status %d: %s", path, b, w.Code, w.Body)
				}
			}
		}
		res, err := e.RunEpoch()
		if err != nil && !errors.Is(err, core.ErrOutOfRange) && !errors.Is(err, lp.ErrInfeasible) {
			t.Fatalf("epoch error is not a typed solver failure: %v", err)
		}
		if res.Planned > res.Members {
			t.Fatalf("epoch planned %d of %d members", res.Planned, res.Members)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("journal: %v", err)
		}
		rep, err := Replay(&journal)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if rep.Matched != 1 || uint64(rep.Ops) != e.Stats().Admitted {
			t.Fatalf("replay matched %d epochs over %d ops, want 1 over %d", rep.Matched, rep.Ops, e.Stats().Admitted)
		}
	})
}
