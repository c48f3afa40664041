package debughttp

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"illixr/internal/netxr/session"
	"illixr/internal/telemetry"
	"illixr/internal/telemetry/slo"
	"illixr/internal/telemetry/stitch"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	reg := telemetry.NewRegistry()
	reg.Counter("illixr_test_hits_total").Add(3)
	reg.Gauge("illixr_test_depth").Set(2)
	spans := telemetry.NewSpanCollector(0)
	root := spans.Emit("imu", 0, 0, 0.001)
	spans.Emit("integrator", root.Trace, 0.001, 0.002, root.Span)
	s := &Server{Metrics: reg, Spans: spans}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "illixr_test_hits_total") || !strings.Contains(body, "3") {
		t.Errorf("metrics output missing counter: %q", body)
	}
}

func TestSpansEndpointIsChromeTrace(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/spans")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("spans are not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("no trace events")
	}
}

func TestPprofIndexServed(t *testing.T) {
	_, ts := newTestServer(t)
	code, _ := get(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("pprof index status %d", code)
	}
}

func TestMissingSourcesReturn404(t *testing.T) {
	s := &Server{}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	for _, path := range []string{"/metrics", "/health", "/spans"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("%s with no source: status %d, want 404", path, code)
		}
	}
}

func TestServeBindsAndStops(t *testing.T) {
	s, _ := newTestServer(t)
	addr, stop, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	code, _ := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("served metrics status %d", code)
	}
	stop()
}

// fakeLister serves a fixed session table.
type fakeLister struct{ infos []session.Info }

func (f fakeLister) Sessions() []session.Info { return f.infos }

func TestSessionsEndpoint(t *testing.T) {
	s := &Server{Sessions: fakeLister{infos: []session.Info{
		{ID: 1, Remote: "10.0.0.2:4000", App: "sponza", UptimeSec: 12.5, QueueDepth: 3, Sent: 100, Dropped: 7, Received: 5000},
		{ID: 2, Remote: "10.0.0.3:4001", App: "ar_demo", UptimeSec: 1.25},
	}}}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/sessions")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var rows []session.Info
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("sessions not JSON: %v", err)
	}
	if len(rows) != 2 || rows[0].ID != 1 || rows[0].Dropped != 7 || rows[1].App != "ar_demo" {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestSessionsEndpointEmptyIsArray(t *testing.T) {
	s := &Server{Sessions: fakeLister{}}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	code, body := get(t, ts.URL+"/sessions")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if strings.TrimSpace(body) != "[]" {
		t.Fatalf("empty table = %q, want []", body)
	}
}

func TestSessionsMissingSourceReturns404(t *testing.T) {
	s := &Server{}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	code, body := get(t, ts.URL+"/sessions")
	if code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", code)
	}
	if !strings.Contains(body, "no netxr session source installed") {
		t.Fatalf("404 body = %q, want a clear explanation", body)
	}
}

// TestStopWaitsForInFlightHandlers is the regression test for the Serve
// shutdown ordering: the stop function must let a handler that is already
// streaming a response finish (http.Server.Shutdown), not sever it
// mid-write (the old bare Close did exactly that).
func TestStopWaitsForInFlightHandlers(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("illixr_test_hits_total").Inc()
	s := &Server{Metrics: reg}

	handlerEntered := make(chan struct{})
	releaseHandler := make(chan struct{})
	base := s.handler()
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(handlerEntered)
		<-releaseHandler
		base.ServeHTTP(w, r)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: wrapped}
	go func() { _ = srv.Serve(ln) }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
		}
	}

	type result struct {
		code int
		body string
		err  error
	}
	resC := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
		if err != nil {
			resC <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			resC <- result{err: rerr}
			return
		}
		resC <- result{code: resp.StatusCode, body: string(b)}
	}()

	<-handlerEntered
	stopped := make(chan struct{})
	go func() { stop(); close(stopped) }()

	select {
	case <-stopped:
		t.Fatal("stop returned while a handler was still in flight")
	case <-time.After(50 * time.Millisecond):
		// good: shutdown is waiting for the handler
	}
	close(releaseHandler)

	res := <-resC
	if res.err != nil {
		t.Fatalf("in-flight request severed by shutdown: %v", res.err)
	}
	if res.code != http.StatusOK || !strings.Contains(res.body, "illixr_test_hits_total") {
		t.Fatalf("in-flight response corrupted: %d %q", res.code, res.body)
	}
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("stop never returned after the handler finished")
	}
}

// TestServeStopGraceful drives the real Serve stop function against a
// slow request to pin the graceful behaviour end to end.
func TestServeStopGraceful(t *testing.T) {
	s, _ := newTestServer(t)
	addr, stop, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// a request completed before stop must be unaffected, and stop must
	// return promptly with no connections open
	if code, _ := get(t, "http://"+addr+"/metrics"); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	done := make(chan struct{})
	go func() { stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("stop hung with no in-flight work")
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still serving after stop")
	}
}

// fakeFleet serves a fixed placement table.
type fakeFleet struct{ doc any }

func (f fakeFleet) FleetDoc() any { return f.doc }

func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t)

	// default: JSON, with the registry snapshot inlined at the top level
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var snap telemetry.RegistrySnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics JSON does not unmarshal into RegistrySnapshot: %v", err)
	}
	if snap.Counters["illixr_test_hits_total"] != 3 || snap.Gauges["illixr_test_depth"] != 2 {
		t.Errorf("snapshot = %+v", snap)
	}
	var doc struct {
		Series        int    `json:"series"`
		SpansRetained int    `json:"spans_retained"`
		SpansDropped  uint64 `json:"spans_dropped"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Series != 2 {
		t.Errorf("series = %d, want 2", doc.Series)
	}
	if doc.SpansRetained != 2 {
		t.Errorf("spans_retained = %d, want 2", doc.SpansRetained)
	}

	// Accept: text/plain negotiates the Prometheus exposition
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	text := string(b)
	if !strings.Contains(text, "# TYPE illixr_test_hits_total counter") {
		t.Errorf("prometheus exposition missing TYPE line:\n%s", text)
	}
	if !strings.Contains(text, "illixr_test_hits_total 3") {
		t.Errorf("prometheus exposition missing sample:\n%s", text)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
}

// The -metrics-out file (the commands hand Registry.WritePrometheus the
// file) and /metrics?format=prometheus are one exposition: byte-identical
// for one registry, every instrument kind included.
func TestMetricsOutMatchesPrometheusEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	h := s.Metrics.Histogram("illixr_test_lat_ms")
	h.Observe(1)
	h.Observe(3)
	var file bytes.Buffer
	if err := s.Metrics.WritePrometheus(&file); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body != file.String() {
		t.Errorf("endpoint and -metrics-out text differ:\n--- endpoint\n%s--- file\n%s", body, file.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if !strings.HasPrefix(line, "illixr_") && !strings.HasPrefix(line, "# TYPE illixr_") {
			t.Errorf("line %q is neither a sample nor its TYPE annotation", line)
		}
	}
}

func TestSpansRawFormatAndStitchedPeers(t *testing.T) {
	s, ts := newTestServer(t)
	s.Node = "gateway"
	peer := telemetry.NewSpanCollector(0)
	peer.SetIDBase(1 << 40)
	peer.Emit("integrator", 1, 0.002, 0.003)
	s.SpanDumps = func() []stitch.Dump {
		return []stitch.Dump{stitch.CollectorDump("replica-0", peer)}
	}

	code, body := get(t, ts.URL+"/spans?format=raw")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var dumps []stitch.Dump
	if err := json.Unmarshal([]byte(body), &dumps); err != nil {
		t.Fatalf("raw dump not JSON: %v", err)
	}
	if len(dumps) != 2 || dumps[0].Node != "gateway" || dumps[1].Node != "replica-0" {
		t.Fatalf("dumps = %+v", dumps)
	}
	if len(dumps[1].Spans) != 1 || dumps[1].Spans[0].Name != "integrator" {
		t.Fatalf("peer dump spans = %+v", dumps[1].Spans)
	}

	// default view stitches both nodes into one Chrome trace
	code, body = get(t, ts.URL+"/spans")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Nodes       []string         `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("stitched spans not JSON: %v", err)
	}
	if len(doc.Nodes) != 2 {
		t.Errorf("nodes = %v, want gateway + replica-0", doc.Nodes)
	}
	procs := 0
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "process_name" {
			procs++
		}
	}
	if procs != 2 {
		t.Errorf("process_name metadata events = %d, want 2", procs)
	}
}

func TestFleetEndpoint(t *testing.T) {
	s := &Server{Fleet: fakeFleet{doc: map[string]int{"up": 3}}}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	code, body := get(t, ts.URL+"/fleet")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var doc map[string]int
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["up"] != 3 {
		t.Fatalf("doc = %v", doc)
	}
}

func TestEventsEndpoint(t *testing.T) {
	fr := telemetry.NewFlightRecorder(8)
	fr.RecordAt(1.5, telemetry.EventAdmit, "replica-0", "session 1")
	s := &Server{Events: fr}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	code, body := get(t, ts.URL+"/events")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var doc struct {
		Recorded uint64                 `json:"recorded"`
		Events   []telemetry.FleetEvent `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Recorded != 1 || len(doc.Events) != 1 || doc.Events[0].Kind != telemetry.EventAdmit {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Events[0].T != 1.5 || doc.Events[0].Node != "replica-0" {
		t.Fatalf("event = %+v", doc.Events[0])
	}
}

func TestSLOEndpoint(t *testing.T) {
	eng := slo.NewEngine(nil)
	eng.AddObjective(slo.Objective{Name: "mtp_p99", Bound: 20, Budget: 0.05, WindowSec: 60})
	for i := 0; i < 9; i++ {
		eng.Observe("mtp_p99", 1.0, 10)
	}
	eng.Observe("mtp_p99", 1.0, 50)
	s := &Server{SLO: eng}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	code, body := get(t, ts.URL+"/slo")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var statuses []slo.Status
	if err := json.Unmarshal([]byte(body), &statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 || statuses[0].Name != "mtp_p99" {
		t.Fatalf("statuses = %+v", statuses)
	}
	if statuses[0].BurnRate != 2.0 {
		t.Errorf("burn rate = %v, want 2.0 (10%% bad on a 5%% budget)", statuses[0].BurnRate)
	}
}

func TestNewEndpointsMissingSourcesReturn404(t *testing.T) {
	s := &Server{}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	for _, path := range []string{"/fleet", "/events", "/slo"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("%s with no source: status %d, want 404", path, code)
		}
	}
}
