package fleet

import (
	"errors"
	"fmt"
	"testing"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// synthSnapshot builds the registry snapshot a replica's /metrics would
// serve for a given load.
func synthSnapshot(sessions, queue float64) telemetry.RegistrySnapshot {
	reg := telemetry.NewRegistry()
	reg.Gauge(ScrapeSessionsGauge).Set(sessions)
	reg.Gauge(ScrapeQueueGauge).Set(queue)
	h := reg.Histogram(ScrapeMTPHist)
	h.Observe(10)
	h.Observe(20)
	reg.Counter(ScrapeResumedCtr).Add(2)
	return reg.Snapshot()
}

func TestScraperFeedsLivePlacement(t *testing.T) {
	coord := NewCoordinator(Config{ReplicaCapacity: 64})
	load := map[int]struct{ sessions, queue float64 }{
		0: {sessions: 10, queue: 0},
		1: {sessions: 1, queue: 0}, // lightly loaded → placement target
		2: {sessions: 5, queue: 8}, // deep queue repels via queueWeight
	}
	s := NewScraper(coord, ScrapeConfig{
		Fetch: func(id int, _ string) (telemetry.RegistrySnapshot, error) {
			l := load[id]
			return synthSnapshot(l.sessions, l.queue), nil
		},
	})
	for id := 0; id < 3; id++ {
		s.AddTarget(id, fmt.Sprintf("http://replica-%d/metrics", id))
		coord.AddReplica(id, s.Probe(id))
	}

	// before any scrape every probe reads zero: placement falls back to
	// "all equal" and must still succeed (lowest id wins ties)
	if id, err := coord.Pick(0, wire.Hello{}); err != nil || id != 0 {
		t.Fatalf("cold pick = %d, %v; want 0", id, err)
	}

	s.ScrapeOnce(1.0)
	id, err := coord.Pick(1.5, wire.Hello{})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("live pick = %d, want 1 (the lightly loaded replica)", id)
	}

	doc, ok := s.FleetDoc().(FleetDoc)
	if !ok {
		t.Fatalf("FleetDoc type %T", s.FleetDoc())
	}
	if len(doc.Replicas) != 3 || doc.Up != 3 {
		t.Fatalf("doc = %+v", doc)
	}
	r2 := doc.Replicas[2]
	if r2.Sessions != 5 || r2.QueueDepth != 8 || r2.Resumed != 2 || !r2.Live {
		t.Errorf("replica 2 stats = %+v", r2)
	}
	if r2.MTPP99Ms <= 0 {
		t.Errorf("replica 2 mtp p99 = %v, want > 0", r2.MTPP99Ms)
	}
}

func TestScraperDownMarkingAndRecovery(t *testing.T) {
	coord := NewCoordinator(Config{})
	events := telemetry.NewFlightRecorder(64)
	failing := true
	s := NewScraper(coord, ScrapeConfig{
		Events: events,
		Fetch: func(int, string) (telemetry.RegistrySnapshot, error) {
			if failing {
				return telemetry.RegistrySnapshot{}, errors.New("connection refused")
			}
			return synthSnapshot(0, 0), nil
		},
	})
	s.AddTarget(0, "http://replica-0/metrics")
	coord.AddReplica(0, s.Probe(0))

	s.ScrapeOnce(1)
	s.ScrapeOnce(2)
	if coord.StatusOf(0) != Up {
		t.Fatal("two failures must not mark Down yet")
	}
	s.ScrapeOnce(3)
	if coord.StatusOf(0) != Down {
		t.Fatal("three consecutive failures must mark the replica Down")
	}

	// recovery: a successful scrape re-Ups a replica the scraper downed
	failing = false
	s.ScrapeOnce(4)
	if coord.StatusOf(0) != Up {
		t.Fatal("successful scrape must undo the scraper's own Down-mark")
	}

	kinds := map[string]int{}
	for _, ev := range events.Events() {
		kinds[ev.Kind]++
	}
	if kinds[telemetry.EventScrapeFail] != 3 {
		t.Errorf("scrape_fail events = %d, want 3 (events: %v)", kinds[telemetry.EventScrapeFail], kinds)
	}
}

func TestScraperDoesNotRevertExternalDown(t *testing.T) {
	coord := NewCoordinator(Config{})
	s := NewScraper(coord, ScrapeConfig{
		Fetch: func(int, string) (telemetry.RegistrySnapshot, error) {
			return synthSnapshot(0, 0), nil
		},
	})
	s.AddTarget(0, "t")
	coord.AddReplica(0, s.Probe(0))
	// the gateway marked it Down (dial failure) — the scraper scraping
	// its still-running metrics endpoint must not resurrect it
	coord.SetStatus(0, Down)
	s.ScrapeOnce(1)
	if coord.StatusOf(0) != Down {
		t.Fatal("scraper must only undo its own Down-marks")
	}
}

func TestCoordinatorRecordsFlightEvents(t *testing.T) {
	events := telemetry.NewFlightRecorder(64)
	coord := NewCoordinator(Config{ReplicaCapacity: 1, Events: events})
	coord.AddReplica(0, nil)
	w, err := coord.AdmitOn(1.0, 0, 1, wire.Hello{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.AdmitOn(1.1, 0, 2, wire.Hello{}); err == nil {
		t.Fatal("over-capacity admission must refuse")
	}
	coord.End(w.ResumeToken)
	coord.SetStatus(0, Down)

	kinds := map[string]int{}
	for _, ev := range events.Events() {
		kinds[ev.Kind]++
	}
	for _, want := range []string{telemetry.EventAdmit, telemetry.EventRefuse, telemetry.EventEnd, telemetry.EventDown} {
		if kinds[want] == 0 {
			t.Errorf("no %q event recorded (got %v)", want, kinds)
		}
	}
	// explicit-clock events carry the admission time
	for _, ev := range events.Events() {
		if ev.Kind == telemetry.EventAdmit && ev.T != 1.0 {
			t.Errorf("admit event at t=%v, want 1.0", ev.T)
		}
	}
}
