package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"braidio/internal/units"
)

// journalSeeds are valid record payloads of every type the journal
// writes, snapshot heads included.
var journalSeeds = []string{
	`{"t":"config","ratio_tol":0.05,"dist_tol":0.05,"window":64,"hub_j":10,"queue_cap":4096}`,
	`{"t":"reg","id":"m0","e":0.3,"d":0.4}`,
	`{"t":"upd","id":"m1","e":0.155,"d":0.42000000000000004}`,
	`{"t":"hub","e":5}`,
	`{"t":"drain","epoch":7}`,
	`{"t":"epoch","epoch":7,"planned":3,"clean":1,"members":4,"digest":"9b2f0c6e1d4a7385"}`,
	`{"t":"snap","snap":{"epoch":6,"ops":281,"hub_j":5,"cfg":{"ratio_tol":0.05,"window":64,"hub_j":10},` +
		`"members":[{"id":"m0","e":0.15,"d":0.4,"plan":{"epoch":6,"ratio":33.3,"distance_m":0.4,` +
		`"modes":["active","passive"],"fractions":[0.25,0.75],"blocks":[16,48],"bits":2.8e7}}],` +
		`"queue":[{"t":"upd","id":"m0","e":0.1,"d":0.5}]}}`,
}

// FuzzDecodeJournalLine holds decodeJournalLine, the parser every
// replayed and recovered journal line passes through, to its contract
// on untrusted bytes: a record or an error, never a panic, in both the
// legacy-tolerant (single-file Replay) and strict (segment recovery)
// modes. Each input is decoded three ways: as arbitrary bytes; framed
// with a valid CRC, which must decode exactly as the payload does; and
// as a valid seed record's framed line after a single-byte flip or a
// truncation, where a flip the decoder still accepts must not have
// changed the record.
func FuzzDecodeJournalLine(f *testing.F) {
	for i, s := range journalSeeds {
		f.Add([]byte(s), uint16(i*13), byte(1<<(i%8)), i%2 == 0, i%3 == 0)
		f.Add(frameLine([]byte(s)), uint16(i), byte(0x20), false, true)
	}
	f.Add([]byte("zzzzzzzz {}"), uint16(3), byte(0), true, false)
	f.Add([]byte{}, uint16(0), byte(0xff), true, true)
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, flip byte, truncate, allowLegacy bool) {
		// Arbitrary bytes.
		decodeJournalLine(data, allowLegacy)

		// The same bytes under a valid frame: the verdict is the
		// payload's own JSON verdict, in either mode.
		framed := frameLine(data)
		framed = framed[:len(framed)-1] // lines reach the decoder without '\n'
		got, err := decodeJournalLine(framed, allowLegacy)
		var want record
		werr := json.Unmarshal(data, &want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("framed verdict %v, bare JSON verdict %v", err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("framed record %+v, bare JSON record %+v", got, want)
		}

		// One mutation away from a valid framed seed.
		seed := frameLine([]byte(journalSeeds[int(pos)%len(journalSeeds)]))
		seed = seed[:len(seed)-1]
		orig, err := decodeJournalLine(seed, allowLegacy)
		if err != nil {
			t.Fatalf("valid seed rejected: %v", err)
		}
		mutated := append([]byte(nil), seed...)
		at := int(pos) % len(mutated)
		if truncate {
			mutated = mutated[:at]
		} else {
			mutated[at] ^= flip
		}
		rec, err := decodeJournalLine(mutated, allowLegacy)
		if err == nil && !truncate && !reflect.DeepEqual(rec, orig) {
			t.Fatalf("byte flip %#x at %d accepted as a different record: %+v", flip, at, rec)
		}
	})
}

// FuzzOpRecord is the differential wall for the journal's hand-appended
// op records. Whenever appendOpRecord accepts an input, its bytes must
// equal json.Marshal of the same record; it may decline only a
// non-ASCII id or a record json.Marshal escapes or rejects. Either way a
// Journal writes the same framed line json.Marshal would have.
func FuzzOpRecord(f *testing.F) {
	for _, v := range []float64{1e-6, 1e21, 5e-324, math.Copysign(0, -1), math.MaxFloat64,
		9.99999e-7, 1e-7, 1.5e-300, 123456789e12, 0.41642, -2.5, math.Inf(1), math.NaN()} {
		f.Add(uint8(1), "m1", math.Float64bits(v), math.Float64bits(0.42000000000000004))
		f.Add(uint8(2), "", math.Float64bits(v), uint64(0))
	}
	for _, id := range []string{"a<b", "a>b", "a&b", `a"b`, `a\b`, "é", "日本", "\u2028", "\xff",
		"\x00", "\x1f", "\t", "\x7f", " ~"} {
		f.Add(uint8(0), id, math.Float64bits(1), math.Float64bits(1))
	}
	f.Fuzz(func(t *testing.T, kind uint8, id string, eBits, dBits uint64) {
		o := op{kind: opKind(kind % 3), id: id,
			energy: units.Joule(math.Float64frombits(eBits)), distance: units.Meter(math.Float64frombits(dBits))}
		r := record{T: o.wireType(), ID: id, E: float64(o.energy), D: float64(o.distance)}
		want, werr := json.Marshal(r)
		got, ok := appendOpRecord(nil, r.T, r.ID, r.E, r.D)
		switch {
		case ok && werr != nil:
			t.Fatalf("fast path accepted %+v, which json.Marshal rejects: %v", r, werr)
		case ok && !bytes.Equal(got, want):
			t.Fatalf("fast path %s, json.Marshal %s", got, want)
		case !ok && werr == nil && isASCII(id) && bytes.Contains(want, []byte(`"id":"`+id+`"`)):
			t.Fatalf("fast path declined %s, which needs no escaping", want)
		}

		var buf bytes.Buffer
		j := &Journal{w: bufio.NewWriter(&buf)}
		j.mu.Lock()
		j.opLocked(&o)
		j.mu.Unlock()
		err := j.Close()
		if (err == nil) != (werr == nil) {
			t.Fatalf("journal error %v, json.Marshal error %v", err, werr)
		}
		if err == nil && !bytes.Equal(buf.Bytes(), frameLine(want)) {
			t.Fatalf("journal line %q, want %q", buf.Bytes(), frameLine(want))
		}
	})
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
