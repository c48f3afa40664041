package fleet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"illixr/internal/netxr/wire"
)

// admissionScript sizes one canonical admission sequence against a
// coordinator seeded with TokenSeed seed: sessions fresh admits over
// replicas × capacity, a replica-full refusal when they fill the fleet,
// acks, terminal ends for every other session, a kill of replica kill
// whose population resumes elsewhere under a burst of burst per window,
// then unknown-token and down-replica refusals.
type admissionScript struct {
	replicas, capacity, sessions, burst, kill int
	seed                                      int64
	unknownToken                              uint64
}

// kiloScript is the 1 024-session admission script: 16 replicas of 96
// seats, filled to two thirds before a kill.
var kiloScript = admissionScript{replicas: 16, capacity: 96, sessions: 1024, burst: 32, kill: 3, seed: 42, unknownToken: 0xdeadbeef}

// driveAdmissionScript replays s against a fresh coordinator and returns
// its decision fingerprint and decision count.
func driveAdmissionScript(t *testing.T, s admissionScript) (fingerprint, decisions uint64) {
	t.Helper()
	c := NewCoordinator(Config{
		ReplicaCapacity: s.capacity,
		ResumeBurst:     s.burst,
		TokenSeed:       s.seed,
	})
	for id := 0; id < s.replicas; id++ {
		c.AddReplica(id, nil)
	}

	var tokens []uint64
	now := 0.0
	for i := 0; i < s.sessions; i++ {
		rid, err := c.Pick(now, wire.Hello{App: "scale"})
		if err != nil {
			t.Fatalf("pick %d: %v", i, err)
		}
		w, err := c.AdmitOn(now, rid, uint64(i+1), wire.Hello{App: "scale"})
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		tokens = append(tokens, w.ResumeToken)
		now += 0.01
	}
	if s.sessions == s.replicas*s.capacity {
		// every replica is at capacity now
		if _, err := c.AdmitOn(now, 0, 99, wire.Hello{App: "scale"}); err == nil {
			t.Fatal("want full refusal")
		}
	}
	// acks advance
	for i, tok := range tokens {
		c.ack(tok, uint64(100+i))
	}
	// terminal ends for half the population — frees the headroom the
	// displaced sessions below resume into
	for i := 0; i < len(tokens); i += 2 {
		c.End(tokens[i])
	}
	// kill a replica, resume its population elsewhere
	displaced := c.KillReplica(s.kill)
	resumed := 0
	for _, rec := range displaced {
		rid, err := c.Pick(now, wire.Hello{App: "scale", ResumeToken: rec.Token})
		if err != nil {
			continue
		}
		if _, err := c.AdmitOn(now, rid, 1000+rec.Token, wire.Hello{App: "scale", ResumeToken: rec.Token}); err == nil {
			resumed++
		}
		now += 0.001
	}
	if resumed == 0 {
		t.Fatal("no session resumed")
	}
	// unknown token and down-replica refusals
	if _, err := c.AdmitOn(now, 0, 7, wire.Hello{ResumeToken: s.unknownToken}); err == nil {
		t.Fatal("want unknown-token refusal")
	}
	if _, err := c.AdmitOn(now, s.kill, 8, wire.Hello{App: "scale"}); err == nil {
		t.Fatal("want down-replica refusal")
	}
	return c.DecisionFingerprint(), c.Decisions()
}

// TestDecisionFingerprintGolden pins the admission script's fingerprint,
// at two sizes, to the values the sharded, log-retaining coordinator
// produced at every shard count (recorded at the commit before the shard
// tables were deleted; the 16×96 value was the kilo-session
// BENCH_scale.json fingerprint): a change to the coordinator that alters
// one decision, one token or the pick order moves them.
func TestDecisionFingerprintGolden(t *testing.T) {
	for _, c := range []struct {
		name              string
		script            admissionScript
		golden, decisions uint64
	}{
		{"3x8", admissionScript{replicas: 3, capacity: 8, sessions: 24, burst: 4, kill: 1, seed: 42, unknownToken: 0xdead},
			0x2f9ef31ab6cf6484, 43},
		{"16x96", kiloScript, 0x16742a60b11c759a, 1602},
	} {
		t.Run(c.name, func(t *testing.T) {
			fp, n := driveAdmissionScript(t, c.script)
			if fp != c.golden || n != c.decisions {
				t.Fatalf("fingerprint %#x over %d decisions, want %#x over %d", fp, n, c.golden, c.decisions)
			}
		})
	}
}

// TestDecisionFingerprintDeterministic: the kilo-session script is a pure
// function of the token seed — at a seed the golden above does not pin,
// the fingerprint and the decision count must come out the same twice.
func TestDecisionFingerprintDeterministic(t *testing.T) {
	s := kiloScript
	s.seed = 7
	fp1, n1 := driveAdmissionScript(t, s)
	fp2, n2 := driveAdmissionScript(t, s)
	if fp1 != fp2 || n1 != n2 {
		t.Fatalf("admission script not deterministic: %#x over %d vs %#x over %d", fp1, n1, fp2, n2)
	}
}

// TestDecisionFoldMatchesReference rebuilds the fingerprint from an
// explicit decision list the test keeps itself — the running fold must
// equal folding that list, in order, from scratch.
func TestDecisionFoldMatchesReference(t *testing.T) {
	type dec struct {
		kind, reason uint8
		replica      int
		token, epoch uint64
	}
	var want []dec
	c := NewCoordinator(Config{ReplicaCapacity: 3, ResumeBurst: 1, TokenSeed: 9})
	c.AddReplica(0, nil)
	c.AddReplica(1, nil)

	// ties go to the lowest id: even tokens land on replica 0, odd on 1
	var tokens []uint64
	for i := 0; i < 6; i++ {
		rid, err := c.Pick(0, wire.Hello{})
		if err != nil {
			t.Fatal(err)
		}
		w, err := c.AdmitOn(0, rid, uint64(i+1), wire.Hello{})
		if err != nil {
			t.Fatal(err)
		}
		tokens = append(tokens, w.ResumeToken)
		want = append(want, dec{decAdmit, 0, rid, w.ResumeToken, 1})
	}
	if _, err := c.AdmitOn(0, 1, 7, wire.Hello{}); err == nil {
		t.Fatal("want full refusal")
	}
	want = append(want, dec{decRefuse, reasonReplicaFull, 1, 0, 0})

	// headroom on replica 0 for the resumes below
	c.End(tokens[0])
	want = append(want, dec{decEnd, 0, 0, tokens[0], 1})
	c.End(tokens[2])
	want = append(want, dec{decEnd, 0, 0, tokens[2], 1})

	c.KillReplica(1)
	if _, err := c.AdmitOn(1, 1, 8, wire.Hello{ResumeToken: tokens[3]}); err == nil {
		t.Fatal("want down-replica refusal")
	}
	want = append(want, dec{decRefuse, reasonReplicaGone, 1, tokens[3], 1})
	if _, err := c.AdmitOn(1, 0, 9, wire.Hello{ResumeToken: tokens[3]}); err != nil {
		t.Fatal(err)
	}
	want = append(want, dec{decResume, 0, 0, tokens[3], 2})
	if _, err := c.AdmitOn(1, 0, 10, wire.Hello{ResumeToken: tokens[5]}); err == nil {
		t.Fatal("want resume-burst refusal")
	}
	want = append(want, dec{decRefuse, reasonResumeBurst, 0, tokens[5], 1})
	if _, err := c.AdmitOn(1, 0, 11, wire.Hello{ResumeToken: 0xdead}); err == nil {
		t.Fatal("want unknown-token refusal")
	}
	want = append(want, dec{decRefuse, reasonUnknownToken, 0, 0xdead, 0})

	ref := uint64(0x9e3779b97f4a7c15)
	for i, d := range want {
		for _, v := range [...]uint64{uint64(i + 1), uint64(d.kind), uint64(d.reason),
			uint64(uint32(d.replica)), d.token, d.epoch} {
			ref = mix64(ref ^ v)
		}
	}
	if got := c.Decisions(); got != uint64(len(want)) {
		t.Fatalf("decisions = %d, want %d", got, len(want))
	}
	if got := c.DecisionFingerprint(); got != ref {
		t.Fatalf("running fold = %#x, reference fold of %d decisions = %#x", got, len(want), ref)
	}
}

// TestDecisionsRetainNoMemory: the coordinator keeps a fold, not a log —
// past 2^20 decisions (where the retained log used to hold ~40 MB) the
// live heap is where it started.
func TestDecisionsRetainNoMemory(t *testing.T) {
	c := NewCoordinator(Config{ReplicaCapacity: 4})
	c.AddReplica(0, nil)
	cycles := func(n int) {
		for i := 0; i < n; i++ {
			w, err := c.AdmitOn(0, 0, 1, wire.Hello{App: "cycle"})
			if err != nil {
				t.Fatal(err)
			}
			c.End(w.ResumeToken)
		}
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	cycles(1 << 10) // let the registry map reach its steady size
	before := heap()
	cycles(1 << 19)
	grown := heap() - before
	if got := c.Decisions(); got <= 1<<20 {
		t.Fatalf("only %d decisions driven, want > 2^20", got)
	}
	if grown > 1<<20 {
		t.Fatalf("live heap grew %d bytes over %d decisions", grown, c.Decisions())
	}
}

// TestTokenSequenceMatchesSplitmix: admissions must issue the exact
// splitmix64 sequence seeded from TokenSeed.
func TestTokenSequenceMatchesSplitmix(t *testing.T) {
	c := NewCoordinator(Config{TokenSeed: 7, ReplicaCapacity: 64})
	c.AddReplica(0, nil)
	seed := uint64(7)
	state := seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for i := 0; i < 64; i++ {
		w, err := c.AdmitOn(0, 0, uint64(i+1), wire.Hello{})
		if err != nil {
			t.Fatal(err)
		}
		if want := splitmix64(&state); w.ResumeToken != want {
			t.Fatalf("token %d = %#x, want %#x", i, w.ResumeToken, want)
		}
	}
}

// TestAckEndStorm hammers ack/end/lookup from many goroutines (run
// under -race by make check): the registry must stay consistent and the
// placement counts must balance out.
func TestAckEndStorm(t *testing.T) {
	const replicas = 4
	const sessions = 64
	const ackers = 8

	c := NewCoordinator(Config{ReplicaCapacity: sessions, TokenSeed: 3})
	for id := 0; id < replicas; id++ {
		c.AddReplica(id, nil)
	}
	tokens := make([]uint64, sessions)
	for i := range tokens {
		w, err := c.AdmitOn(0, i%replicas, uint64(i+1), wire.Hello{App: "storm"})
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		tokens[i] = w.ResumeToken
	}

	var wg sync.WaitGroup
	for g := 0; g < ackers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); seq <= 500; seq++ {
				for _, tok := range tokens {
					c.ack(tok, seq*uint64(g+1))
					if seq%64 == 0 {
						c.Lookup(tok)
					}
				}
			}
		}()
	}
	// enders race the ackers
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tok := range tokens[:sessions/2] {
			c.End(tok)
		}
	}()
	wg.Wait()

	// surviving half: acked to the max any acker reached
	for _, tok := range tokens[sessions/2:] {
		rec, ok := c.Lookup(tok)
		if !ok {
			t.Fatalf("token %#x vanished", tok)
		}
		if rec.LastAckSeq != 500*uint64(ackers) {
			t.Fatalf("token %#x LastAckSeq = %d, want %d", tok, rec.LastAckSeq, 500*ackers)
		}
	}
	// ended half gone; placement counts balance
	for _, tok := range tokens[:sessions/2] {
		if _, ok := c.Lookup(tok); ok {
			t.Fatalf("ended token %#x still present", tok)
		}
	}
	total := 0
	for id := 0; id < replicas; id++ {
		total += c.Sessions(id)
	}
	if total != sessions/2 {
		t.Fatalf("placement counts sum to %d, want %d", total, sessions/2)
	}
}

// BenchmarkCoordinatorCycle is one session's whole control-plane life —
// Pick, AdmitOn, Ack, End — alone and from GOMAXPROCS goroutines at
// once. It is the instrument for any claim that the single lock should
// be split (DESIGN.md §15.2).
func BenchmarkCoordinatorCycle(b *testing.B) {
	setup := func() *Coordinator {
		c := NewCoordinator(Config{ReplicaCapacity: 1 << 30})
		for id := 0; id < 4; id++ {
			c.AddReplica(id, nil)
		}
		return c
	}
	hello := wire.Hello{App: "bench"}
	cycle := func(b *testing.B, c *Coordinator, sid uint64) {
		rid, err := c.Pick(0, hello)
		if err != nil {
			b.Error(err) // not Fatal: RunParallel calls this off the benchmark goroutine
			return
		}
		w, err := c.AdmitOn(0, rid, sid, hello)
		if err != nil {
			b.Error(err)
			return
		}
		c.ack(w.ResumeToken, 64)
		c.End(w.ResumeToken)
	}
	b.Run("serial", func(b *testing.B) {
		c := setup()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cycle(b, c, uint64(i))
		}
	})
	b.Run("parallel", func(b *testing.B) {
		c := setup()
		var sid atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				cycle(b, c, sid.Add(1))
			}
		})
		b.ReportMetric(float64(c.Contention())/float64(b.N), "contended/op")
	})
}

// DecisionFingerprint is the hash of every admission decision committed
// so far, in commit order. Equal fingerprints mean equal decision
// streams: the pinned goldens in the fleet and bench tests are how a
// change to this file proves it altered no decision.
func (c *Coordinator) DecisionFingerprint() uint64 {
	c.lock()
	defer c.mu.Unlock()
	return c.fp
}

// Decisions returns how many admission decisions have been committed.
func (c *Coordinator) Decisions() uint64 {
	c.lock()
	defer c.mu.Unlock()
	return c.decisions
}
