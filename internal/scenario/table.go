// Figure/table output types and their CSV/markdown renderings. The CSV
// formatting is part of the golden-fixture contract and must not drift.
package scenario

import (
	"fmt"
	"sort"
	"strings"
)

// Point is one (x, y) sample of a figure line.
type Point struct {
	X float64
	Y float64
}

// Series is one labeled figure line.
type Series struct {
	Name   string
	Points []Point
}

// ReasonPoint is one x-axis sample of a variant's failure breakdown: the
// across-seed mean failure count per abort reason at that x.
type ReasonPoint struct {
	X       float64
	Reasons map[string]float64
}

// ReasonSeries is one variant's per-reason failure breakdown across the
// panel's x values.
type ReasonSeries struct {
	Name   string
	Points []ReasonPoint
}

// topReasons formats the up-to-three largest failure reasons of a point as
// "reason=count" pairs joined with ";" (count desc, ties by name asc, %.1f —
// counts are across-seed means). Deterministic for a fixed map content.
func topReasons(reasons map[string]float64) string {
	type rc struct {
		name  string
		count float64
	}
	list := make([]rc, 0, len(reasons))
	for name, c := range reasons {
		if c > 0 {
			list = append(list, rc{name, c})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].count != list[j].count {
			return list[i].count > list[j].count
		}
		return list[i].name < list[j].name
	})
	if len(list) > 3 {
		list = list[:3]
	}
	parts := make([]string, len(list))
	for i, r := range list {
		parts[i] = fmt.Sprintf("%s=%.1f", r.name, r.count)
	}
	return strings.Join(parts, ";")
}

// Table is a rendered result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// CSV renders the table as CSV.
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// SeriesTable renders a set of series sharing X values into a table with
// one column per series.
func SeriesTable(title, xLabel string, series []Series) Table {
	t := Table{Title: title, Header: []string{xLabel}}
	for _, s := range series {
		t.Header = append(t.Header, s.Name)
	}
	if len(series) == 0 {
		return t
	}
	for i, p := range series[0].Points {
		row := []string{fmt.Sprintf("%g", p.X)}
		for _, s := range series {
			if i < len(s.Points) {
				row = append(row, fmt.Sprintf("%.4f", s.Points[i].Y))
			} else {
				row = append(row, "")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ChurnTable renders the churn panel: one row per churn rate, TSR and delay
// columns per variant.
func ChurnTable(title string, tsr, delay []Series) Table {
	return PanelTable(title, "churn_rate", tsr, delay)
}

// AttackTable renders the resilience panel: one row per attack intensity,
// TSR and delay columns per variant.
func AttackTable(title string, tsr, delay []Series) Table {
	return PanelTable(title, "attack_intensity", tsr, delay)
}

// PanelTable renders a two-metric scheme panel over the named x-axis: one
// row per x value, TSR and delay columns per variant. The column layout is
// the golden-fixture churn-panel format, generalized over the axis label.
// Optional reason series append one "<variant> fail_reasons" column each —
// the variant's top failure reasons as "reason=count" pairs — so retry
// recovery is attributable per cell; callers without them (the pre-existing
// churn and attack panels) render the historical layout unchanged.
func PanelTable(title, xLabel string, tsr, delay []Series, reasons ...ReasonSeries) Table {
	t := Table{Title: title, Header: []string{xLabel}}
	for _, s := range tsr {
		t.Header = append(t.Header, s.Name+" TSR")
	}
	for _, s := range delay {
		t.Header = append(t.Header, s.Name+" delay(s)")
	}
	for _, s := range reasons {
		t.Header = append(t.Header, s.Name+" fail_reasons")
	}
	if len(tsr) == 0 {
		return t
	}
	for i, p := range tsr[0].Points {
		row := []string{fmt.Sprintf("%g", p.X)}
		for _, s := range tsr {
			row = append(row, fmt.Sprintf("%.4f", s.Points[i].Y))
		}
		for _, s := range delay {
			row = append(row, fmt.Sprintf("%.4f", s.Points[i].Y))
		}
		for _, s := range reasons {
			cell := ""
			if i < len(s.Points) {
				cell = topReasons(s.Points[i].Reasons)
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// RetryTable renders the retry-resilience panel: one row per attack
// intensity; TSR, delay and failure-breakdown columns per scheme×{off,on}
// variant.
func RetryTable(title string, tsr, delay []Series, reasons []ReasonSeries) Table {
	return PanelTable(title, "attack_intensity", tsr, delay, reasons...)
}

// TradeoffTable renders Fig. 9(b) points.
func TradeoffTable(title string, points []TradeoffPoint) Table {
	t := Table{Title: title, Header: []string{"omega", "mgmt_cost", "sync_cost", "num_hubs"}}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", p.Omega),
			fmt.Sprintf("%.4f", p.MgmtCost),
			fmt.Sprintf("%.4f", p.SyncCost),
			fmt.Sprintf("%d", p.NumHubs),
		})
	}
	return t
}

// DelayOverheadTable renders Fig. 9(e/f) points.
func DelayOverheadTable(title string, points []DelayOverheadPoint) Table {
	t := Table{Title: title, Header: []string{"omega", "with_pch", "delay_ms", "overhead"}}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", p.Omega),
			fmt.Sprintf("%v", p.WithPCH),
			fmt.Sprintf("%.2f", p.DelayMs),
			fmt.Sprintf("%.3f", p.Overhead),
		})
	}
	return t
}

// TableIITable renders the routing-choice study rows.
func TableIITable(rows []TableIIRow) Table {
	t := Table{
		Title:  "Table II: influence of routing choices on Splicer's TSR",
		Header: []string{"Group", "Choice", "Small", "Large"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Group, r.Choice,
			fmt.Sprintf("%.2f%%", 100*r.Small),
			fmt.Sprintf("%.2f%%", 100*r.Large),
		})
	}
	return t
}
