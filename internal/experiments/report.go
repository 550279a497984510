// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a pure function from the calibrated
// models to a structured Report; the cmd/braidio-bench binary renders
// reports as text and CSV, and the root bench_test.go wraps each one in
// a testing.B benchmark.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"braidio/internal/ascii"
	"braidio/internal/stats"
)

// NamedTable is a titled table of string cells.
type NamedTable struct {
	Name   string     // the table's title
	Header []string   // column headings
	Rows   [][]string // cells, one slice per row
}

// NamedSeries is a titled (X, Y) curve.
type NamedSeries struct {
	Name string       // the curve's title
	Data stats.Series // the curve's samples
}

// NamedMatrix is a titled labeled numeric matrix (the device-pair gain
// heatmaps).
type NamedMatrix struct {
	Name      string      // the matrix's title
	RowLabels []string    // one label per row
	ColLabels []string    // one label per column
	Cells     [][]float64 // values, Cells[row][col]
	// Format is the cell printf format; empty means %.3g.
	Format string
}

// Report is the structured output of one experiment.
type Report struct {
	// ID is the experiment identifier (e.g. "fig15").
	ID string
	// Title describes the artifact reproduced.
	Title string
	// PaperClaim quotes what the paper reports for this artifact.
	PaperClaim string
	// Notes carry measured headline numbers for EXPERIMENTS.md.
	Notes    []string
	Tables   []NamedTable  // tabular artifacts
	Series   []NamedSeries // curves
	Matrices []NamedMatrix // heatmaps
}

// AddNote appends a formatted note.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render writes the report as terminal text.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	if r.PaperClaim != "" {
		if _, err := fmt.Fprintf(w, "paper: %s\n", r.PaperClaim); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	for _, t := range r.Tables {
		if _, err := fmt.Fprintf(w, "\n-- %s --\n", t.Name); err != nil {
			return err
		}
		if err := ascii.Table(w, t.Header, t.Rows); err != nil {
			return err
		}
	}
	for _, s := range r.Series {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := ascii.LineChart(w, s.Data, 64, 12, s.Name); err != nil {
			return err
		}
	}
	for _, m := range r.Matrices {
		if _, err := fmt.Fprintf(w, "\n-- %s --\n", m.Name); err != nil {
			return err
		}
		if err := ascii.Heatmap(w, m.RowLabels, m.ColLabels, m.Cells, m.Format); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV writes each table, series, and matrix of the report as a CSV
// file under dir, named <id>_<slug>.csv. It creates dir if needed.
func (r *Report) WriteCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(slug string, f func(io.Writer) error) error {
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", r.ID, slug))
		file, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := f(file); err != nil {
			file.Close()
			return err
		}
		return file.Close()
	}
	for _, t := range r.Tables {
		t := t
		if err := write(slugify(t.Name), func(w io.Writer) error {
			return ascii.CSV(w, t.Header, t.Rows)
		}); err != nil {
			return err
		}
	}
	for _, s := range r.Series {
		s := s
		if err := write(slugify(s.Name), func(w io.Writer) error {
			return ascii.SeriesCSV(w, []string{s.Name}, []stats.Series{s.Data})
		}); err != nil {
			return err
		}
	}
	for _, m := range r.Matrices {
		m := m
		if err := write(slugify(m.Name), func(w io.Writer) error {
			header := append([]string{""}, m.ColLabels...)
			rows := make([][]string, len(m.Cells))
			for i, row := range m.Cells {
				cells := make([]string, len(row)+1)
				if i < len(m.RowLabels) {
					cells[0] = m.RowLabels[i]
				}
				for j, v := range row {
					cells[j+1] = fmt.Sprintf("%g", v)
				}
				rows[i] = cells
			}
			return ascii.CSV(w, header, rows)
		}); err != nil {
			return err
		}
	}
	return nil
}

// slugify converts a name to a filename-safe slug.
func slugify(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case b.Len() > 0 && !strings.HasSuffix(b.String(), "-"):
			b.WriteRune('-')
		}
	}
	return strings.Trim(b.String(), "-")
}

// Experiment is a registered reproduction unit.
type Experiment struct {
	// ID identifies the experiment ("table1", "fig15", ...).
	ID string
	// Title summarizes it.
	Title string
	// Run produces the report.
	Run func() (*Report, error)
}

// All returns every experiment in paper order: tables first, then
// figures, then the ablations DESIGN.md calls out.
func All() []Experiment {
	return []Experiment{
		{"table1", "Bluetooth TX/RX power ratios", Table1},
		{"table2", "Commercial reader power and cost", Table2},
		{"table3", "Commercial reader vs Braidio, by problem", Table3},
		{"table4", "Hardware modules of the prototype", Table4},
		{"table5", "Mode-switch overheads", Table5},
		{"fig1", "Battery capacity across mobile devices", Fig1},
		{"fig3", "RF charge pump transient", Fig3},
		{"fig4", "Phase cancellation field map", Fig4},
		{"fig6", "Antenna diversity SNR", Fig6},
		{"fig9", "Efficiency region and dynamic range at 0.3 m", Fig9},
		{"fig12", "BER: Braidio vs commercial reader", Fig12},
		{"fig13", "BER vs distance per mode and bitrate", Fig13},
		{"fig14", "Efficiency regions vs distance", Fig14},
		{"fig15", "Gain matrix vs Bluetooth (unidirectional)", Fig15},
		{"fig16", "Gain matrix vs best single mode", Fig16},
		{"fig17", "Gain matrix vs Bluetooth (bidirectional)", Fig17},
		{"fig18", "Gain vs distance for three device pairs", Fig18},
		{"rxchain", "Waveform-level self-interference rejection", RxChain},
		{"ext-harvest", "Battery-free backscatter via RF harvesting", ExtHarvest},
		{"ext-mobility", "Braided MAC under mobility", ExtMobility},
		{"ext-linecode", "Line coding on the envelope uplink", ExtLineCode},
		{"ext-hub", "Star network: hub plus wearables", ExtHub},
		{"ext-wakeup", "Idle listening vs duty cycling", ExtWakeup},
		{"ext-qam", "16-QAM backscatter", ExtQAM},
		{"ext-inventory", "Multi-tag Gen2 inventory", ExtInventory},
		{"ext-outage", "Fading outage probability", ExtOutage},
		{"ext-pump", "Charge pump stage trade-off", ExtPump},
		{"ext-sensitivity", "Headline sensitivity to hardware parameters", ExtSensitivity},
		{"ext-qos", "QoS-aware carrier offload", ExtQoS},
		{"ablation-scheduler", "Block vs interleaved schedule", AblationScheduler},
		{"ablation-switch", "Switch overhead on/off", AblationSwitchOverhead},
		{"ablation-arq", "Ideal vs ARQ loss accounting", AblationARQ},
		{"ablation-solver", "Closed-form vs LP offload solver", AblationSolver},
		{"ablation-diversity", "Antenna diversity on/off", AblationDiversity},
	}
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
