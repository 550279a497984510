package serve

import (
	"encoding/json"
	"reflect"
	"testing"
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
