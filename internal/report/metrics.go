package report

import (
	"encoding/csv"
	"io"
	"strconv"

	"flex/internal/obs"
)

// WriteMetricsSummary writes every metric in the registry as CSV: counters
// and gauges carry a value; histograms carry their exact count, sum and
// mean. Rows are sorted by metric name (registry order), so summaries of
// two runs diff cleanly.
func WriteMetricsSummary(w io.Writer, r *obs.Registry) error {
	cw := csv.NewWriter(w)
	header := []string{"metric", "labels", "kind", "value", "count", "sum", "mean"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range r.Snapshots() {
		labels := ""
		for i, l := range s.Labels {
			if i > 0 {
				labels += ","
			}
			labels += l.Name + "=" + l.Value
		}
		rec := []string{s.Name, labels, s.Kind.String(), "", "", "", ""}
		if s.Kind == obs.KindHistogram {
			rec[4] = strconv.FormatUint(s.Count, 10)
			rec[5] = f(s.Sum)
			if s.Count > 0 {
				rec[6] = f(s.Sum / float64(s.Count))
			}
		} else {
			rec[3] = f(s.Value)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
