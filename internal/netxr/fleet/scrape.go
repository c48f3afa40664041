package fleet

// Metrics federation: the gateway-side scraper that closes the loop
// between replica telemetry and placement. Each replica's debughttp
// /metrics endpoint exposes its registry as JSON; the Scraper polls
// every target on an interval, folds the scraped values into per-replica
// stats (and gateway-side gauges), and hands the coordinator live
// LoadProbes — so Pick scores replicas by what they are actually doing
// (sessions admitted directly, queue backpressure, competing load) and
// not just by what this coordinator placed. This is the ROADMAP item-1
// gap: the LoadProbe hook existed since PR 6, but nothing fed it.
//
// The fetch step is pluggable: production uses HTTP GET, the bench and
// tests inject a Fetch hook returning synthetic snapshots under virtual
// time — the scrape→fold→probe→Pick pipeline is identical either way.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"illixr/internal/telemetry"
)

// Metric names the scraper extracts from a replica's registry snapshot
// (emitted by internal/netxr/session and internal/netxr/bridge). Exported
// so the bench can synthesize replica snapshots against the same names.
const (
	scrapeSessionsGauge = "illixr_netxr_sessions_active"
	scrapeQueueGauge    = "illixr_netxr_queue_depth"
	scrapeMTPHist       = "illixr_netxr_qoe_mtp_ms"
	scrapeResumedCtr    = "illixr_netxr_sessions_resumed_total"
	scrapeRefusedCtr    = "illixr_netxr_admission_refused_total"
)

// ReplicaStats is one replica's last-scraped view, exported in the
// /fleet document.
type ReplicaStats struct {
	ID         int     `json:"replica"`
	Target     string  `json:"target"`
	Status     string  `json:"status"`
	Placed     int     `json:"placed"` // this coordinator's own count
	Sessions   float64 `json:"sessions"`
	QueueDepth float64 `json:"queue_depth"`
	MTPP50Ms   float64 `json:"mtp_p50_ms"`
	MTPP99Ms   float64 `json:"mtp_p99_ms"`
	Resumed    uint64  `json:"resumed"`
	Refused    uint64  `json:"refused"`
	Scrapes    uint64  `json:"scrapes"`
	Failures   uint64  `json:"scrape_failures"`
	LastScrape float64 `json:"last_scrape"` // scraper clock, seconds
	Live       bool    `json:"live"`        // at least one successful scrape
}

// FleetDoc is the aggregated /fleet payload.
type FleetDoc struct {
	Replicas []ReplicaStats `json:"replicas"`
	// Up counts replicas currently Up in the coordinator.
	Up int `json:"up"`
	// Placed/Resumed/Refused are fleet-wide coordinator totals (from the
	// illixr_fleet_* counters when a registry is attached).
	Placed  uint64 `json:"placed_total"`
	Resumed uint64 `json:"resumed_total"`
	Refused uint64 `json:"refused_total"`
}

// ScrapeConfig tunes the scraper. The zero value is usable.
type ScrapeConfig struct {
	// Interval is the caller's pause between ScrapeOnce rounds (0 = 1s);
	// it bounds each fetch.
	Interval time.Duration
	// Metrics receives the folded illixr_fleet_replica_* gauges and
	// scrape counters; nil = uninstrumented.
	Metrics *telemetry.Registry
	// Events receives scrape_fail / down / replica_up flight events.
	Events *telemetry.FlightRecorder
	// Fetch retrieves one target's registry snapshot; nil = HTTP GET of
	// the target URL expecting the /metrics JSON document. The bench
	// injects synthetic snapshots here.
	Fetch func(id int, target string) (telemetry.RegistrySnapshot, error)
}

// downAfter marks a replica Down after this many consecutive scrape
// failures.
const downAfter = 3

type scrapeState struct {
	target       string
	stats        ReplicaStats
	consecFails  int
	markedDown   bool // we Down-marked it, so we may re-Up it
	sessionsG    *telemetry.Gauge
	queueG       *telemetry.Gauge
	mtpP99G      *telemetry.Gauge
	scrapeFailsC *telemetry.Counter
}

// Scraper polls replica /metrics endpoints and feeds the coordinator's
// placement probes from the results.
type Scraper struct {
	coord *Coordinator
	cfg   ScrapeConfig

	mu      sync.Mutex
	targets map[int]*scrapeState
}

// NewScraper builds a scraper bound to a coordinator.
func NewScraper(coord *Coordinator, cfg ScrapeConfig) *Scraper {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	return &Scraper{coord: coord, cfg: cfg, targets: map[int]*scrapeState{}}
}

// AddTarget registers a replica's metrics endpoint. Call Probe(id) for
// the LoadProbe to hand coord.AddReplica.
func (s *Scraper) AddTarget(id int, target string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.cfg.Metrics
	name := func(suffix string) string {
		return telemetry.MetricName("fleet", fmt.Sprintf("replica_%d_%s", id, suffix))
	}
	s.targets[id] = &scrapeState{
		target:       target,
		stats:        ReplicaStats{ID: id, Target: target},
		sessionsG:    m.Gauge(name("sessions")),
		queueG:       m.Gauge(name("queue_depth")),
		mtpP99G:      m.Gauge(name("mtp_p99_ms")),
		scrapeFailsC: m.Counter(name("scrape_failures_total")),
	}
}

// Probe returns the live LoadProbe for a replica: the last scraped
// session count and queue depth. Before the first successful scrape it
// reports zero load — the coordinator's own placement counts still apply
// through AdmitOn's capacity check, so a cold probe cannot overfill a
// replica, it just can't see load placed elsewhere yet.
func (s *Scraper) Probe(id int) LoadProbe {
	return func() (int, float64) {
		s.mu.Lock()
		defer s.mu.Unlock()
		st, ok := s.targets[id]
		if !ok || !st.stats.Live {
			return 0, 0
		}
		return int(st.stats.Sessions), st.stats.QueueDepth
	}
}

// fetch retrieves one snapshot, via the hook or HTTP.
func (s *Scraper) fetch(id int, target string) (telemetry.RegistrySnapshot, error) {
	if s.cfg.Fetch != nil {
		return s.cfg.Fetch(id, target)
	}
	// each fetch gets one interval, capped so a long interval cannot pin
	// a round on a dead replica
	client := &http.Client{Timeout: min(s.cfg.Interval, 5*time.Second)}
	resp, err := client.Get(target)
	if err != nil {
		return telemetry.RegistrySnapshot{}, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return telemetry.RegistrySnapshot{}, fmt.Errorf("scrape %s: HTTP %d", target, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return telemetry.RegistrySnapshot{}, err
	}
	var snap telemetry.RegistrySnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return telemetry.RegistrySnapshot{}, fmt.Errorf("scrape %s: %w", target, err)
	}
	return snap, nil
}

// ScrapeOnce polls every target once at the given time (the caller's
// clock — virtual under the bench). Deterministic: targets are visited
// in id order.
func (s *Scraper) ScrapeOnce(now float64) {
	s.mu.Lock()
	ids := make([]int, 0, len(s.targets))
	for id := range s.targets {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	s.mu.Unlock()
	for _, id := range ids {
		s.scrapeTarget(id, now)
	}
}

func (s *Scraper) scrapeTarget(id int, now float64) {
	s.mu.Lock()
	st, ok := s.targets[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	target := st.target
	s.mu.Unlock()

	snap, err := s.fetch(id, target) // outside the lock: fetches can block
	node := fmt.Sprintf("replica-%d", id)

	// Status transitions happen after s.mu is released: Pick holds the
	// coordinator lock while calling probes (which take s.mu), so calling
	// the coordinator under s.mu would invert lock order.
	markDown, markUp := false, false
	s.mu.Lock()
	st.stats.LastScrape = now
	if err != nil {
		st.stats.Failures++
		st.consecFails++
		st.scrapeFailsC.Inc()
		s.cfg.Events.RecordAt(now, telemetry.EventScrapeFail, node, err.Error())
		if st.consecFails >= downAfter && !st.markedDown {
			st.markedDown = true
			markDown = true
		}
	} else {
		st.stats.Scrapes++
		st.consecFails = 0
		st.stats.Live = true
		st.stats.Sessions = snap.Gauges[scrapeSessionsGauge]
		st.stats.QueueDepth = snap.Gauges[scrapeQueueGauge]
		if h, ok := snap.Histograms[scrapeMTPHist]; ok {
			st.stats.MTPP50Ms, st.stats.MTPP99Ms = h.P50, h.P99
		}
		st.stats.Resumed = snap.Counters[scrapeResumedCtr]
		st.stats.Refused = snap.Counters[scrapeRefusedCtr]
		st.sessionsG.Set(st.stats.Sessions)
		st.queueG.Set(st.stats.QueueDepth)
		st.mtpP99G.Set(st.stats.MTPP99Ms)
		// a replica we Down-marked for scrape failures is answering
		// again: bring it back. Replicas downed by others (dial
		// failures, relay severance) stay down — the scraper only
		// undoes its own marks.
		if st.markedDown {
			st.markedDown = false
			markUp = true
		}
	}
	s.mu.Unlock()
	if markDown && s.coord.StatusOf(id) == Up {
		s.coord.setStatus(id, down)
	}
	if markUp && s.coord.StatusOf(id) == down {
		s.coord.setStatus(id, Up)
	}
}

// FleetDoc aggregates the fleet view for the /fleet endpoint.
func (s *Scraper) FleetDoc() any {
	// copy rows under s.mu only, then annotate from the coordinator: Pick
	// holds the coordinator lock while calling probes (which take s.mu),
	// so holding s.mu across coordinator calls would invert lock order.
	s.mu.Lock()
	rows := make([]ReplicaStats, 0, len(s.targets))
	for _, st := range s.targets {
		rows = append(rows, st.stats)
	}
	s.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	doc := FleetDoc{Replicas: rows}
	for i := range doc.Replicas {
		id := doc.Replicas[i].ID
		doc.Replicas[i].Status = s.coord.StatusOf(id).String()
		doc.Replicas[i].Placed = s.coord.Sessions(id)
		if doc.Replicas[i].Status == Up.String() {
			doc.Up++
		}
	}
	if m := s.coord.cfg.Metrics; m != nil {
		doc.Placed = m.Counter(telemetry.MetricName("fleet", "placed_total")).Value()
		doc.Resumed = m.Counter(telemetry.MetricName("fleet", "resumed_total")).Value()
		doc.Refused = m.Counter(telemetry.MetricName("fleet", "refused_total")).Value()
	}
	return doc
}
