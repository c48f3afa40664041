package fleet

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"illixr/internal/netxr/wire"
	"illixr/internal/telemetry"
)

// synthSnapshot builds the registry snapshot a replica's /metrics would
// serve for a given load.
func synthSnapshot(sessions, queue float64) telemetry.RegistrySnapshot {
	reg := telemetry.NewRegistry()
	reg.Gauge(scrapeSessionsGauge).Set(sessions)
	reg.Gauge(scrapeQueueGauge).Set(queue)
	h := reg.Histogram(scrapeMTPHist)
	h.Observe(10)
	h.Observe(20)
	reg.Counter(scrapeResumedCtr).Add(2)
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

	// a ramp with load on replica 0 that only its /metrics shows: the
	// scraper-fed coordinator steers away from it, a probe-less one
	// cannot; with nothing hidden the two place alike
	for _, hidden := range []int{0, 40} {
		t.Run(fmt.Sprintf("ramp_hidden=%d", hidden), func(t *testing.T) {
			static, live := placeRamp(t, hidden, false), placeRamp(t, hidden, true)
			t.Logf("%d hidden on replica 0: static %v, live %v", hidden, static, live)
			if hidden == 0 && !slices.Equal(live, static) {
				t.Errorf("no hidden load: live placed %v, static %v; want the same", live, static)
			}
			if hidden > 0 && live[0] >= static[0] {
				t.Errorf("%d hidden on replica 0: live placed %v, static %v; want fewer on 0 live", hidden, live, static)
			}
		})
	}
}

// placeRamp admits 30 sessions arriving evenly over 2 s onto three
// replicas and returns how many landed on each. With live set a Scraper
// feeds the coordinator every 0.25 s, from a Fetch that reports the
// ramp's own placements plus hidden extra sessions on replica 0;
// without it the coordinator sees only its own counts.
func placeRamp(t *testing.T, hidden int, live bool) []int {
	t.Helper()
	const replicas, sessions, rampSec, every = 3, 30, 2.0, 0.25
	coord := NewCoordinator(Config{ReplicaCapacity: 64})
	placed := make([]int, replicas)
	s := NewScraper(coord, ScrapeConfig{
		Fetch: func(id int, _ string) (telemetry.RegistrySnapshot, error) {
			n := placed[id]
			if id == 0 {
				n += hidden
			}
			return synthSnapshot(float64(n), 0), nil
		},
	})
	for id := 0; id < replicas; id++ {
		var probe LoadProbe
		if live {
			s.AddTarget(id, fmt.Sprintf("http://replica-%d/metrics", id))
			probe = s.Probe(id)
		}
		coord.AddReplica(id, probe)
	}
	scraped := math.Inf(-1)
	for i := 0; i < sessions; i++ {
		now := float64(i) * rampSec / sessions
		if live && now >= scraped+every {
			s.ScrapeOnce(now)
			scraped = now
		}
		id, err := coord.Pick(now, wire.Hello{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.AdmitOn(now, id, uint64(i+1), wire.Hello{}); err != nil {
			t.Fatal(err)
		}
		placed[id]++
	}
	return placed
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
	if coord.StatusOf(0) != down {
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
	coord.setStatus(0, down)
	s.ScrapeOnce(1)
	if coord.StatusOf(0) != down {
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
	coord.setStatus(0, down)

	kinds := map[string]int{}
	for _, ev := range events.Events() {
		kinds[ev.Kind]++
	}
	// one event per decision: an admit per admitted session, and so on
	for _, want := range []string{telemetry.EventAdmit, telemetry.EventRefuse, telemetry.EventEnd, telemetry.EventDown} {
		if kinds[want] != 1 {
			t.Errorf("%d %q events recorded, want 1 (got %v)", kinds[want], want, kinds)
		}
	}
	// explicit-clock events carry the admission time
	for _, ev := range events.Events() {
		if ev.Kind == telemetry.EventAdmit && ev.T != 1.0 {
			t.Errorf("admit event at t=%v, want 1.0", ev.T)
		}
	}
}
