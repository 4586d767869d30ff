package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// escapeLabel escapes a label value for the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes a HELP string for the Prometheus text format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// labelString renders {k="v",...} for the series, with extra pairs
// appended (used for histogram le labels); empty labels render as "".
func labelString(keys, values []string, extraKey, extraVal string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, k, escapeLabel(values[i]))
	}
	if extraKey != "" {
		if len(keys) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, extraKey, extraVal)
	}
	sb.WriteByte('}')
	return sb.String()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, each with # HELP / # TYPE
// lines, series sorted by labels, histograms expanded into cumulative
// _bucket series plus _sum and _count.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			switch m := s.metric.(type) {
			case *Counter:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.keys, s.values, "", ""), m.Value()); err != nil {
					return err
				}
			case *Gauge:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.keys, s.values, "", ""), m.Value()); err != nil {
					return err
				}
			case *Histogram:
				bounds, cum := m.Buckets()
				for i, b := range bounds {
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.keys, s.values, "le", formatFloat(b)), cum[i]); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.keys, s.values, "le", "+Inf"), cum[len(cum)-1]); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.keys, s.values, "", ""), formatFloat(m.Sum().Seconds())); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.keys, s.values, "", ""), m.Count()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
