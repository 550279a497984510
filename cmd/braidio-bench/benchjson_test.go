package main

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	const sample = `goos: linux
goarch: amd64
pkg: braidio
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkWaveformFrame           	    9403	     26645 ns/op	   68160 B/op	       4 allocs/op
BenchmarkWaveformFrameZeroAlloc-8	   12661	     19508 ns/op	       0 B/op	       0 allocs/op
BenchmarkAnalyticBER-8           	98765432	        12.5 ns/op
PASS
ok  	braidio	1.898s
`
	rec, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Goos != "linux" || rec.Goarch != "amd64" || !strings.Contains(rec.CPU, "Xeon") {
		t.Errorf("context not captured: %+v", rec)
	}
	if len(rec.Results) != 3 {
		t.Fatalf("%d results, want 3", len(rec.Results))
	}
	r0 := rec.Results[0]
	if r0.Name != "WaveformFrame" || r0.NsPerOp != 26645 || r0.BytesPerOp != 68160 || r0.AllocsPerOp != 4 {
		t.Errorf("result 0 = %+v", r0)
	}
	if r1 := rec.Results[1]; r1.Name != "WaveformFrameZeroAlloc" || r1.AllocsPerOp != 0 {
		t.Errorf("result 1 = %+v (GOMAXPROCS suffix must be stripped, zero allocs preserved)", r1)
	}
	if r2 := rec.Results[2]; r2.Name != "AnalyticBER" || r2.NsPerOp != 12.5 || r2.BytesPerOp != -1 || r2.AllocsPerOp != -1 {
		t.Errorf("result 2 = %+v (missing -benchmem fields must be -1)", r2)
	}
}

func TestParseBenchEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok braidio 1s\n")); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestParseBenchRecordsHost checks the record names the GOMAXPROCS its
// lines ran at (the -N suffix, 1 when absent) and the writing host.
func TestParseBenchRecordsHost(t *testing.T) {
	for _, tc := range []struct {
		line  string
		name  string
		procs int
	}{
		{"BenchmarkHubHour-4   100   9800 ns/op", "HubHour", 4},
		{"BenchmarkHubHour   100   9800 ns/op", "HubHour", 1},
		{"BenchmarkNetFleetHour/workers=8-2   100   9800 ns/op", "NetFleetHour/workers=8", 2},
	} {
		rec, err := parseBench(strings.NewReader(tc.line + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Results[0].Name; got != tc.name || rec.GOMAXPROCS != tc.procs {
			t.Errorf("%q: name %q GOMAXPROCS %d, want %q %d", tc.line, got, rec.GOMAXPROCS, tc.name, tc.procs)
		}
		if rec.NumCPU != runtime.NumCPU() || rec.GoVersion != runtime.Version() {
			t.Errorf("%q: host NumCPU=%d GoVersion=%q", tc.line, rec.NumCPU, rec.GoVersion)
		}
	}
}

// TestWriteBenchJSONCommit checks -benchjson records the -commit
// revision, and that the record reads back with it.
func TestWriteBenchJSONCommit(t *testing.T) {
	const line = "BenchmarkHubHour-2   100   9800 ns/op\n"
	for _, commit := range []string{"333f29b2e1d1506f22d1dc6f15de64262bc69dad", ""} {
		path := filepath.Join(t.TempDir(), "bench.json")
		if err := writeBenchJSON(strings.NewReader(line), path, commit); err != nil {
			t.Fatal(err)
		}
		rec, err := readBenchJSON(path)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Commit != commit || len(rec.Results) != 1 {
			t.Errorf("commit %q: read back commit %q with %d results", commit, rec.Commit, len(rec.Results))
		}
	}
}

// TestProcsWarning checks -benchdiff warns exactly when the records'
// GOMAXPROCS differ or the baseline predates the field.
func TestProcsWarning(t *testing.T) {
	for _, tc := range []struct {
		old, new int
		want     string
	}{
		{1, 1, ""},
		{2, 2, ""},
		{1, 2, "warning: baseline GOMAXPROCS=1, new GOMAXPROCS=2; timings may not be comparable"},
		{0, 1, "warning: baseline GOMAXPROCS=unrecorded, new GOMAXPROCS=1; timings may not be comparable"},
	} {
		got := procsWarning(&BenchRecord{GOMAXPROCS: tc.old}, &BenchRecord{GOMAXPROCS: tc.new})
		if got != tc.want {
			t.Errorf("old %d new %d: %q, want %q", tc.old, tc.new, got, tc.want)
		}
	}
}
