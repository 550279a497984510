package experiments

import (
	"fmt"
	"math"

	"braidio/internal/core"
	"braidio/internal/par"
	"braidio/internal/phy"
	"braidio/internal/stats"
	"braidio/internal/units"
)

// Fig9 reproduces Fig. 9: the efficiency points of the three modes at
// 0.3 m, the ratio annotations (0.9524:1, 1:2546, 3546:1), the dynamic
// range, and the point P a 100:1 pair operates at.
func Fig9() (*Report, error) {
	r := &Report{
		ID:         "fig9",
		Title:      "Dynamic range of power assignment at 0.3 m",
		PaperClaim: "TX:RX efficiency ratios span 1:2546 to 3546:1 — seven orders of magnitude",
	}
	m := phy.NewModel()
	region := core.RegionAt(m, 0.3)
	rows := [][]string{}
	for _, p := range region.Points {
		rows = append(rows, []string{
			p.Mode.String(),
			p.Rate.String(),
			fmt.Sprintf("%.3g", p.TXBitsPerJoule),
			fmt.Sprintf("%.3g", p.RXBitsPerJoule),
			ratioLabel(p.EfficiencyRatio()),
		})
	}
	r.Tables = append(r.Tables, NamedTable{
		Name:   "Fig. 9 corners (bits/joule)",
		Header: []string{"Mode", "Rate", "TX bits/J", "RX bits/J", "TX:RX ratio"},
		Rows:   rows,
	})
	min, max := region.RatioSpan()
	r.AddNote("ratio span %s .. %s (%.1f orders of magnitude)",
		ratioLabel(min), ratioLabel(max), region.DynamicRangeOrders())
	p, err := core.PointP(m, 0.3, 100, 1)
	if err != nil {
		return nil, err
	}
	r.AddNote("point P (100:1 budgets): %.3g TX bits/J, %.3g RX bits/J, dominant mode %v",
		p.TXBitsPerJoule, p.RXBitsPerJoule, p.Mode)
	return r, nil
}

// ratioLabel formats an efficiency ratio the way the paper annotates it:
// "3546:1" when it favors the transmitter, "1:2546" when the receiver.
func ratioLabel(ratio float64) string {
	if ratio >= 1 {
		return fmt.Sprintf("%.4g:1", ratio)
	}
	return fmt.Sprintf("1:%.4g", 1/ratio)
}

// Fig12 reproduces Fig. 12: BER vs distance at 100 kbps for Braidio's
// backscatter receiver and the AS3993 commercial reader.
func Fig12() (*Report, error) {
	r := &Report{
		ID:         "fig12",
		Title:      "Bit error rate: Braidio vs commercial reader at 100 kbps",
		PaperClaim: "Braidio reaches 1.8 m vs the reader's 3 m (~40% less range) at 129 mW vs 640 mW (~5× less power)",
	}
	m := phy.NewModel()
	// The two receivers' curves are independent sweeps over the same
	// distance grid — one pool cell each (the model is safe for
	// concurrent readers).
	curves := make([]stats.Series, 2)
	par.For(0, 2, func(c int) {
		for d := 0.2; d <= 4.0; d += 0.05 {
			var y float64
			if c == 0 {
				y = logBER(m.BER(phy.ModeBackscatter, units.Rate100k, units.Meter(d)))
			} else {
				y = logBER(phy.CommercialReaderBER(units.Meter(d)))
			}
			curves[c] = append(curves[c], stats.Point{X: d, Y: y})
		}
	})
	braidio, commercial := curves[0], curves[1]
	r.Series = append(r.Series,
		NamedSeries{Name: "Braidio log10(BER) vs m", Data: braidio},
		NamedSeries{Name: "AS3993 log10(BER) vs m", Data: commercial},
	)
	bRange, _ := braidio.CrossAbove(-2)
	cRange, _ := commercial.CrossAbove(-2)
	r.AddNote("operational range (BER<1%%): Braidio %.2f m, commercial %.2f m (%.0f%% less)",
		bRange, cRange, 100*(1-bRange/cRange))
	r.AddNote("power: Braidio %v vs reader %v (%.1f× more efficient)",
		phy.BackscatterRXPower, phy.ReaderPowerDraw, float64(phy.ReaderPowerDraw/phy.BackscatterRXPower))
	return r, nil
}

// logBER maps a BER to log10 for plotting, flooring at 1e-6.
func logBER(ber float64) float64 {
	if ber < 1e-6 {
		ber = 1e-6
	}
	return math.Log10(ber)
}

// Fig13 reproduces Fig. 13: BER vs distance for the backscatter and
// passive modes at 1 Mbps, 100 kbps, and 10 kbps.
func Fig13() (*Report, error) {
	r := &Report{
		ID:         "fig13",
		Title:      "BER over distance for backscatter and passive modes",
		PaperClaim: "ranges: backscatter 0.9/1.8/2.4 m, passive 3.9/4.2/5.1 m at 1M/100k/10k",
	}
	m := phy.NewModel()
	// Six independent (mode, rate) cells; each sweeps its own distance
	// grid and computes its own range. Fan out over the shared pool and
	// assemble series and table rows in cell order afterwards.
	type cell struct {
		mode phy.Mode
		rate units.BitRate
		data stats.Series
		rng  units.Meter
	}
	var specs []cell
	for _, mode := range []phy.Mode{phy.ModeBackscatter, phy.ModePassive} {
		for _, rate := range phy.Rates {
			specs = append(specs, cell{mode: mode, rate: rate})
		}
	}
	par.For(0, len(specs), func(i int) {
		c := &specs[i]
		maxD := 3.0
		if c.mode == phy.ModePassive {
			maxD = 6.0
		}
		for d := 0.1; d <= maxD; d += 0.02 {
			c.data = append(c.data, stats.Point{X: d, Y: logBER(m.BER(c.mode, c.rate, units.Meter(d)))})
		}
		c.rng = m.Range(c.mode, c.rate)
	})
	rows := [][]string{}
	for _, c := range specs {
		r.Series = append(r.Series, NamedSeries{
			Name: fmt.Sprintf("%v@%v log10(BER) vs m", c.mode, c.rate),
			Data: c.data,
		})
		rows = append(rows, []string{
			c.mode.String(), c.rate.String(),
			fmt.Sprintf("%.2f m", float64(c.rng)),
		})
	}
	r.Tables = append(r.Tables, NamedTable{
		Name:   "operational ranges (BER < 1%)",
		Header: []string{"Mode", "Rate", "Range"},
		Rows:   rows,
	})
	return r, nil
}

// Fig14 reproduces Fig. 14: how the feasible efficiency region changes
// with distance — the corners, ratio annotations, and the shrink from
// triangle to line to point.
func Fig14() (*Report, error) {
	r := &Report{
		ID:         "fig14",
		Title:      "Energy efficiency and dynamic range at different distances",
		PaperClaim: "ratios degrade 3546:1→5571:1→7800:1 and 1:2546→1:4000→1:5600; backscatter drops out at 2.4 m, passive degrades to 10 kbps, only active beyond ~5.1 m",
	}
	m := phy.NewModel()
	rows := [][]string{}
	for _, d := range []units.Meter{0.3, 0.95, 1.85, 2.45, 4.0, 4.5, 5.2} {
		region := core.RegionAt(m, d)
		shape := "triangle"
		if len(region.Points) == 2 {
			shape = "line"
		} else if len(region.Points) == 1 {
			shape = "point"
		}
		min, max := region.RatioSpan()
		detail := ""
		for i, p := range region.Points {
			if i > 0 {
				detail += ", "
			}
			detail += fmt.Sprintf("%v@%v", p.Mode, p.Rate)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f m", float64(d)),
			shape,
			detail,
			ratioLabel(min) + " .. " + ratioLabel(max),
			fmt.Sprintf("%.1f", region.DynamicRangeOrders()),
		})
	}
	r.Tables = append(r.Tables, NamedTable{
		Name:   "feasible regions vs distance",
		Header: []string{"Distance", "Shape", "Available links", "Ratio span", "Orders"},
		Rows:   rows,
	})
	// The headline ratio ladder.
	for _, rate := range phy.Rates {
		r.AddNote("backscatter@%v: %s; passive@%v: %s",
			rate, ratioLabel(float64(phy.BackscatterRXPower/phy.BackscatterTXPower(rate))),
			rate, ratioLabel(float64(phy.PassiveRXPower(rate)/phy.PassiveTXPower)))
	}
	return r, nil
}
