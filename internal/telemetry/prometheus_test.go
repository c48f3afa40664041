package telemetry

import (
	"sort"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricName("test", "hits_total")).Add(3)
	r.Gauge(MetricName("test", "depth")).Set(2.5)
	h := r.Histogram(MetricName("test", "lat_ms"))
	h.Observe(1)
	h.Observe(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE illixr_test_hits_total counter\nillixr_test_hits_total 3\n",
		"# TYPE illixr_test_depth gauge\nillixr_test_depth 2.5\n",
		"# TYPE illixr_test_lat_ms summary\n",
		`illixr_test_lat_ms{quantile="0.99"}`,
		"illixr_test_lat_ms_sum 4\n",
		"illixr_test_lat_ms_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// instruments come out sorted by name, whatever their kind
	var types []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	if len(types) != 3 || !sort.StringsAreSorted(types) {
		t.Errorf("instruments not sorted by name: %q", types)
	}
}

func TestSeriesCount(t *testing.T) {
	r := NewRegistry()
	if r.SeriesCount() != 0 {
		t.Fatalf("empty registry series = %d", r.SeriesCount())
	}
	r.Counter("a")
	r.Gauge("b")
	r.Histogram("c")
	r.Counter("a") // no new series
	if got := r.SeriesCount(); got != 3 {
		t.Errorf("series = %d, want 3", got)
	}
	var nilr *Registry
	if nilr.SeriesCount() != 0 {
		t.Error("nil registry must report 0 series")
	}
}
