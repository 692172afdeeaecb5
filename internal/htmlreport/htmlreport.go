// Package htmlreport renders a complete diagnosis into a single
// self-contained HTML page: run summary, ranked culprits, causal patterns,
// the causal tree of the worst victim, and reconstructed queue-occupancy
// charts per NF — the artifact an operator attaches to an incident ticket.
package htmlreport

import (
	"fmt"
	"html"
	"sort"
	"strings"

	"microscope/internal/core"
	"microscope/internal/patterns"
	"microscope/internal/plot"
	"microscope/internal/report"
	"microscope/internal/simtime"
	"microscope/internal/tracestore"
)

// Input bundles everything the page renders.
type Input struct {
	Store     *tracestore.Store
	Diagnoses []core.Diagnosis
	Patterns  []patterns.Pattern
	// Explanation is the causal tree of the headline victim (optional).
	Explanation *core.Explanation
	// Title heads the page.
	Title string
}

const (
	// queueChartStep samples reconstructed queue lengths at this interval
	// for the per-NF charts.
	queueChartStep = 100 * simtime.Microsecond
	// maxPatterns caps the pattern listing.
	maxPatterns = 20
)

func (in *Input) setDefaults() {
	if in.Title == "" {
		in.Title = "Microscope diagnosis report"
	}
}

// Render produces the HTML page.
func Render(in Input) string {
	in.setDefaults()
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", html.EscapeString(in.Title))
	b.WriteString(`<style>
body { font-family: sans-serif; margin: 2em; max-width: 70em; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #ccc; padding: 4px 10px; text-align: left; }
th { background: #f0f0f0; }
pre { background: #f8f8f8; padding: 1em; overflow-x: auto; }
h2 { border-bottom: 1px solid #ddd; padding-bottom: 4px; }
.charts { display: flex; flex-wrap: wrap; gap: 1em; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(in.Title))

	// Summary.
	delivered, lost := 0, 0
	for i := range in.Store.Journeys {
		if in.Store.Journeys[i].Delivered {
			delivered++
		} else {
			lost++
		}
	}
	fmt.Fprintf(&b, "<p>%d packets reconstructed (%d delivered, %d incomplete); %d victims diagnosed; %d causal patterns.</p>\n",
		len(in.Store.Journeys), delivered, lost, len(in.Diagnoses), len(in.Patterns))

	// Top culprits.
	b.WriteString("<h2>Top culprits</h2>\n<table><tr><th>component</th><th>kind</th><th>score</th><th>onset</th></tr>\n")
	for _, c := range core.TopCauses(in.Diagnoses, 10) {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%.1f</td><td>%v</td></tr>\n",
			html.EscapeString(c.Comp), c.Kind, c.Score, c.At)
	}
	b.WriteString("</table>\n")

	// Worst victims.
	if len(in.Diagnoses) > 0 {
		b.WriteString("<h2>Worst victims</h2>\n<table><tr><th>#</th><th>kind</th><th>component</th><th>flow</th><th>arrival</th><th>queue delay</th></tr>\n")
		limit := len(in.Diagnoses)
		if limit > 10 {
			limit = 10
		}
		for i, d := range in.Diagnoses[:limit] {
			flow := "?"
			if d.Victim.HasTuple {
				flow = d.Victim.Tuple.String()
			}
			fmt.Fprintf(&b, "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%v</td><td>%v</td></tr>\n",
				i+1, d.Victim.Kind, html.EscapeString(d.Victim.Comp),
				html.EscapeString(flow), d.Victim.ArriveAt, d.Victim.QueueDelay)
		}
		b.WriteString("</table>\n")
	}

	// Patterns.
	if len(in.Patterns) > 0 {
		b.WriteString("<h2>Causal patterns (culprit &rarr; victim)</h2>\n<table><tr><th>culprit flows</th><th>culprit NF</th><th>victim flows</th><th>victim NF</th><th>score</th></tr>\n")
		limit := len(in.Patterns)
		if limit > maxPatterns {
			limit = maxPatterns
		}
		for _, p := range in.Patterns[:limit] {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%.1f</td></tr>\n",
				html.EscapeString(p.CulpritFlow.String()), html.EscapeString(p.CulpritNF.String()),
				html.EscapeString(p.VictimFlow.String()), html.EscapeString(p.VictimNF.String()), p.Score)
		}
		b.WriteString("</table>\n")
	}

	// Headline victim's causal tree.
	if in.Explanation != nil {
		b.WriteString("<h2>Causal tree of the worst victim</h2>\n<pre>")
		b.WriteString(html.EscapeString(in.Explanation.Render()))
		b.WriteString("</pre>\n")
	}

	// Per-NF queue charts from the reconstructed trace.
	b.WriteString("<h2>Reconstructed queue occupancy</h2>\n<div class=\"charts\">\n")
	for _, comp := range chartComponents(in.Store) {
		s := queueSeries(in.Store, comp, queueChartStep)
		if s.Len() == 0 {
			continue
		}
		b.WriteString(plot.SVG(plot.Config{Width: 420, Height: 240, Title: comp + " queue"}, s))
	}
	b.WriteString("</div>\n</body></html>\n")
	return b.String()
}

// chartComponents lists NFs in deterministic order (source excluded).
func chartComponents(st *tracestore.Store) []string {
	var out []string
	for _, name := range st.Components() {
		if st.KindOf(name) == "source" {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// queueSeries samples the reconstructed queue length over the trace span.
func queueSeries(st *tracestore.Store, comp string, step simtime.Duration) *report.Series {
	v := st.View(comp)
	s := &report.Series{Name: comp, XLabel: "time (ms)", YLabel: "packets"}
	if v == nil || len(v.Arrivals) == 0 {
		return s
	}
	start := v.Arrivals[0].At
	end := v.Arrivals[len(v.Arrivals)-1].At
	for t := start; t <= end; t = t.Add(step) {
		s.Add(t.Millis(), float64(st.QueueLenAt(comp, t)))
	}
	return s
}
