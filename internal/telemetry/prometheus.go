package telemetry

// Prometheus text exposition for the registry — its one text format: the
// same instruments the JSON snapshot exposes, rendered the way standard
// scrapers understand (`# TYPE`-annotated lines, histograms as summaries
// with quantile labels plus _sum/_count). Served by debughttp /metrics
// under content negotiation (Accept: text/plain) and written by the
// commands' -metrics-out.

import (
	"fmt"
	"io"
	"sort"
)

// SeriesCount returns how many named instruments the registry holds.
// Surfaced on /metrics so a scraper can watch its own cardinality.
func (r *Registry) SeriesCount() int {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.counters) + len(r.gauges) + len(r.histograms)
}

// WritePrometheus dumps every instrument in Prometheus text exposition
// format, sorted by name. Counters keep their _total suffix as-is;
// histograms are rendered as summaries (quantile labels from the log
// buckets, exact _sum and _count).
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var err error
		if v, ok := s.Counters[n]; ok {
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, v)
		} else if v, ok := s.Gauges[n]; ok {
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", n, n, v)
		} else if h, ok := s.Histograms[n]; ok {
			_, err = fmt.Fprintf(w,
				"# TYPE %s summary\n%s{quantile=\"0.5\"} %g\n%s{quantile=\"0.9\"} %g\n%s{quantile=\"0.99\"} %g\n%s_sum %g\n%s_count %d\n",
				n, n, h.P50, n, h.P90, n, h.P99, n, h.Mean*float64(h.Count), n, h.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
