package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden notes file")

// goldenNotes renders every experiment's headline notes into one
// document. Everything in the module is deterministically seeded, so
// this is stable run-to-run; any change to a calibration constant, a
// model, or a solver shows up as a diff here.
func goldenNotes(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, e := range All() {
		rep, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&b, "[%s]\n", rep.ID)
		for _, n := range rep.Notes {
			fmt.Fprintf(&b, "%s\n", n)
		}
	}
	return b.String()
}

// TestGoldenNotes compares the regenerated headline numbers against the
// committed golden file. Regenerate intentionally with:
//
//	go test ./internal/experiments -run TestGoldenNotes -update
func TestGoldenNotes(t *testing.T) {
	got := goldenNotes(t)
	path := filepath.Join("testdata", "notes.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			g, w := "", ""
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Errorf("line %d:\n  got:  %q\n  want: %q", i+1, g, w)
			}
		}
	}
}

// TestAblationSolverDigest pins the whole rendered ablation-solver report
// (table and note) to its SHA-256. notes.golden holds only the note; the
// table's per-ratio simplex bits are pinned here so a change to the
// Eq. (1) simplex path cannot move them silently.
func TestAblationSolverDigest(t *testing.T) {
	const want = "d6ca252a51904dbf1e1b3412d9295452c86b4fd57f6e657510e1cbcbc1c27040"
	rep, err := AblationSolver()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rep.Render(&b); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != want {
		t.Errorf("ablation-solver report digest %s, want %s\n%s", got, want, b.String())
	}
}
