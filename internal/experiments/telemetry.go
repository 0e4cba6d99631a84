package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"s3asim/internal/core"
	"s3asim/internal/obs"
	"s3asim/internal/plot"
	"s3asim/internal/stats"
)

// This file is the experiments-layer surface of the telemetry pipeline
// (DESIGN.md §15): deterministic flight-dump artifacts and the shared
// alert-timeline table both sweeps render.

// strategySlug lowercases a strategy name for artifact file names
// ("WW-Coll" → "ww-coll").
func strategySlug(s core.Strategy) string {
	return strings.ToLower(s.String())
}

// reasonSlug compresses a flight-dump trigger reason into a file-name-safe
// slug: lowercase, runs of non-alphanumerics collapsed to single dashes.
func reasonSlug(reason string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(reason) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			if dash && b.Len() > 0 {
				b.WriteByte('-')
			}
			dash = false
			b.WriteRune(r)
		default:
			dash = true
		}
	}
	if b.Len() == 0 {
		return "trigger"
	}
	return b.String()
}

// writeFlightDumps writes every flight dump in rep as a JSONL artifact named
// <prefix>_<seq>_<reason-slug>.jsonl under dir (created if missing) and
// returns the paths in dump order. Callers invoke this from the serialized
// sweep fold in ascending cell order, so the artifact set is deterministic
// at any sweep parallelism.
func writeFlightDumps(dir, prefix string, rep *core.Report) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var files []string
	for i := range rep.FlightDumps {
		d := &rep.FlightDumps[i]
		path := filepath.Join(dir, fmt.Sprintf("%s_%d_%s.jsonl",
			prefix, d.Seq, reasonSlug(d.Reason)))
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		werr := d.WriteJSONL(f, rep.Windows, rep.Alerts)
		cerr := f.Close()
		if werr != nil {
			return nil, fmt.Errorf("flight dump %s: %w", path, werr)
		}
		if cerr != nil {
			return nil, cerr
		}
		files = append(files, path)
	}
	return files, nil
}

// telemetryChart builds one run's windowed timeline: per-window rates of the
// named counters, the named histogram's per-window p99, and a dashed marker
// at every alert firing (solid-color) and resolution (grey).
func telemetryChart(title string, s *obs.Series, alerts []obs.Alert,
	counters []string, hist string) *plot.LineChart {

	ch := &plot.LineChart{Title: title, XLabel: "virtual time (s)", YLabel: "rate (/s), p99 (s)"}
	width := s.Width.Seconds()
	xs := make([]float64, len(s.Windows))
	for i, w := range s.Windows {
		xs[i] = w.End.Seconds()
	}
	for _, name := range counters {
		ys := make([]float64, len(s.Windows))
		for i, w := range s.Windows {
			ys[i] = float64(w.Counters[name]) / width
		}
		ch.Series = append(ch.Series, plot.Series{Name: name + " (/s)", Xs: xs, Ys: ys})
	}
	if hist != "" {
		ys := make([]float64, len(s.Windows))
		for i, w := range s.Windows {
			ys[i] = w.Hists[hist].Quantile(0.99)
		}
		ch.Series = append(ch.Series, plot.Series{Name: hist + " p99 (s)", Xs: xs, Ys: ys})
	}
	for _, a := range alerts {
		v := plot.VLine{X: a.At.Seconds()}
		if a.Fired {
			v.Label = "fire " + a.Rule
		} else {
			v.Label = "resolve " + a.Rule
			v.Color = "#999999"
		}
		ch.VLines = append(ch.VLines, v)
	}
	return ch
}

// TimelineHTML renders the sweep's telemetry as a self-contained HTML page:
// one windowed-rate chart per cell with alert markers, plus the alert
// timeline table. Empty string when telemetry was off.
func (sr *ServeResult) TimelineHTML() string {
	page := plot.NewHTMLPage("Serving telemetry timeline")
	any := false
	for _, c := range sr.Cells {
		if c.Windows == nil {
			continue
		}
		any = true
		title := fmt.Sprintf("%v load %s — window %.3fs",
			c.Strategy, trimFloat(c.Load), c.Windows.Width.Seconds())
		ch := telemetryChart(title, c.Windows, c.Alerts,
			[]string{"serve.queries", "serve.slo_violations"}, "serve.latency")
		page.AddSVG(title, ch.SVG(880, 360))
	}
	if !any {
		return ""
	}
	page.AddPre("Alert timeline", sr.AlertTable().String())
	return page.String()
}

// TimelineHTML renders the chaos sweep's telemetry page: per-cell windowed
// fault rates with alert markers, plus the alert timeline table. Empty
// string when telemetry was off.
func (cr *ChaosResult) TimelineHTML() string {
	page := plot.NewHTMLPage("Chaos telemetry timeline")
	any := false
	for _, s := range cr.Strat {
		for _, x := range cr.Xs {
			c := cr.Cell(s, x)
			if c == nil || c.Windows == nil {
				continue
			}
			any = true
			title := fmt.Sprintf("%v crashes=%d — window %.3fs",
				s, x, c.Windows.Width.Seconds())
			ch := telemetryChart(title, c.Windows, c.Alerts,
				[]string{"fault.crashes", "fault.restarts", "fault.tasks_reexecuted"},
				"fault.detection_latency")
			page.AddSVG(title, ch.SVG(880, 360))
		}
	}
	if !any {
		return ""
	}
	page.AddPre("Alert timeline", cr.AlertTable().String())
	return page.String()
}

// alertTable renders an alert timeline — one row per firing or resolution,
// in (cell, virtual-time) order — for any sweep whose cells carry alerts.
// rows supplies per-cell label columns (e.g. strategy and load).
func alertTable(title string, labels []string, cells int,
	cellRows func(cell int) ([]string, []obs.Alert)) *stats.Table {

	headers := append(append([]string{}, labels...),
		"t (s)", "event", "rule", "value", "slow", "threshold")
	t := stats.NewTable(title, headers...)
	for cell := 0; cell < cells; cell++ {
		label, alerts := cellRows(cell)
		for _, a := range alerts {
			event := "resolve"
			if a.Fired {
				event = "fire"
			}
			row := make([]any, 0, len(headers))
			for _, l := range label {
				row = append(row, l)
			}
			row = append(row, a.At.Seconds(), event, a.Rule,
				a.Value, a.Slow, a.Threshold)
			t.AddRowf(row...)
		}
	}
	return t
}
