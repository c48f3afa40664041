package node

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"illixr/internal/core"
	"illixr/internal/integrator"
	"illixr/internal/mathx"
	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/fleet"
	"illixr/internal/netxr/wire"
	"illixr/internal/qos"
	xruntime "illixr/internal/runtime"
	"illixr/internal/sensors"
	"illixr/internal/telemetry"
)

// noKeepAlive fetches from debug endpoints without leaving an idle
// connection (and its two goroutines) behind for the baseline checks.
var noKeepAlive = &http.Client{Timeout: 5 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true}}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := noKeepAlive.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, read error %v\n%s", url, resp.StatusCode, err, body)
	}
	return string(body)
}

func eventually(t testing.TB, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func closeCtx(t testing.TB) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

type servable interface {
	Start() error
	Serve(net.Listener) error
	Close(context.Context) error
}

// serve starts n and serves it on a loopback port until the test ends
// (Close is idempotent, so a test that closes earlier is fine).
func serve(t testing.TB, n servable) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(t, n, ln)
}

// serveOn is serve on a listener the test chose.
func serveOn(t testing.TB, n servable, ln net.Listener) string {
	t.Helper()
	if err := n.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	go func() {
		if err := n.Serve(ln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { _ = n.Close(closeCtx(t)) })
	return ln.Addr().String()
}

// datasetSec is the length of every recording the tests stream: 200 IMU
// samples and 6 camera frames.
const datasetSec = 0.4

// device is a node.Client with the dataset player the command loads.
type device struct {
	*Client
	ds     *sensors.Dataset
	player *core.DatasetPlayerPlugin
	poses  *xruntime.Subscription
}

func dial(t *testing.T, c *Client, seed int64) *device {
	t.Helper()
	dcfg := sensors.DefaultDatasetConfig()
	dcfg.Duration, dcfg.Seed = datasetSec, seed
	ds := sensors.GenerateDataset(dcfg)
	c.Hello.IMURateHz, c.Hello.CamRateHz = dcfg.IMURateHz, dcfg.CamRateHz
	if err := c.Start(); err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	d := &device{Client: c, ds: ds, player: &core.DatasetPlayerPlugin{Dataset: ds}}
	// no pose comes back before the first sample goes up
	d.poses = c.Loader.Context().Switchboard.GetTopic(xruntime.TopicFastPose).Subscribe(8192)
	if err := c.Loader.Load(d.player); err != nil {
		t.Fatal(err)
	}
	return d
}

// stream plays the whole recording up, a QoE report after every 50 ms
// step, and checks every pose that came back — the downlink is
// latest-wins, so on a slow host few but the last do — against a local
// integrator fed the same samples: the offloaded pipeline must compute
// the same bits.
func (d *device) stream() error {
	for step := 0.05; step < datasetSec+0.05; step += 0.05 { // the last step plays past the end
		d.player.PumpUntil(step)
		if err := d.Bridge.SendQoE(telemetry.MTPSample{T: step, IMUAge: 4}); err != nil {
			return fmt.Errorf("qoe: %w", err)
		}
	}
	in := integrator.New(integrator.State{})
	last := d.ds.IMU[len(d.ds.IMU)-1].T
	timeout := time.After(10 * time.Second)
	for fed := 0; ; {
		select {
		case ev := <-d.poses.C:
			for fed < len(d.ds.IMU) && d.ds.IMU[fed].T <= ev.T {
				in.Feed(d.ds.IMU[fed])
				fed++
			}
			if got, want := ev.Value.(mathx.Pose), in.FastPose(); got != want {
				return fmt.Errorf("pose at t=%v differs from the local integrator: got %+v want %+v", ev.T, got, want)
			}
			if ev.T >= last {
				return nil
			}
		case <-timeout:
			return fmt.Errorf("no pose covering t=%v (transport: %v)", last, d.Bridge.Err())
		}
	}
}

func (d *device) mustStream(t *testing.T) {
	t.Helper()
	if err := d.stream(); err != nil {
		t.Fatal(err)
	}
}

func counter(reg *telemetry.Registry, name string) uint64 { return reg.Snapshot().Counters[name] }

// decodeCapture reads and decodes the binlog capture at path.
func decodeCapture(t *testing.T, path string) *binlog.Log {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := binlog.DecodeLog(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// (a) The replica compositions illixr-serve can build, each driven by a
// real client over loopback TCP through Run, the commands' lifecycle.
func TestReplica(t *testing.T) {
	for _, arm := range []struct {
		name string
		r    Replica
	}{
		{"plain", Replica{}},
		{"vio", Replica{VIO: true}},
		{"qos", Replica{QoSWorkers: 4}},
		{"record", Replica{Record: "serve.binlog"}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			dir := t.TempDir()
			r := arm.r
			r.Node, r.DebugAddr = "replica-"+arm.name, "127.0.0.1:0"
			if r.Record != "" {
				r.Record = filepath.Join(dir, r.Record)
			}
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, stop := context.WithCancel(context.Background())
			var stdout bytes.Buffer
			traceOut, metricsOut := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.txt")
			ran := make(chan error, 1)
			go func() { ran <- Run(ctx, &r, ln, &stdout, traceOut, metricsOut); close(ran) }()
			defer func() { stop(); <-ran }() // a failed arm must not run into the next one's Start

			d := dial(t, &Client{Addr: ln.Addr().String(), Hello: wire.Hello{App: arm.name, Seed: 3}}, 3)
			d.mustStream(t)
			if got := counter(r.Registry, "illixr_integrator_samples_total"); got != uint64(len(d.ds.IMU)) {
				t.Errorf("integrator_samples_total = %d, %d samples sent", got, len(d.ds.IMU))
			}
			if r.VIO {
				eventually(t, "VIO to take a camera frame", func() bool {
					return counter(r.Registry, "illixr_vio_frames_total") > 0
				})
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			eventually(t, "the session to end", func() bool { return r.Server.Len() == 0 })

			if r.QoS == nil {
				// (with -qos the epoch loop moves gauges between the two reads;
				// and Server.Len reaches 0 before SessionEnd has stopped the
				// session's VIO, so a last frame can land between them: the
				// two renderings must agree once the registry holds still)
				var endpoint string
				var file bytes.Buffer
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
					endpoint = get(t, "http://"+r.DebugAddr+"/metrics?format=prometheus")
					file.Reset()
					if err := r.WriteMetrics(&file); err != nil {
						t.Fatal(err)
					}
					if endpoint == file.String() || time.Now().After(deadline) {
						break
					}
				}
				if endpoint != file.String() {
					t.Errorf("WriteMetrics and /metrics?format=prometheus differ:\n--- endpoint\n%s--- WriteMetrics\n%s", endpoint, file.String())
				}
			}

			stop()
			if err := <-ran; err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := r.Close(closeCtx(t)); err != nil {
				t.Errorf("second Close: %v", err)
			}
			trace, err := os.ReadFile(traceOut)
			if err != nil || !json.Valid(trace) || !bytes.Contains(trace, []byte(core.CompIntegrator)) {
				t.Errorf("trace-out: %v, %d bytes, valid JSON %v", err, len(trace), json.Valid(trace))
			}
			metrics, err := os.ReadFile(metricsOut)
			if err != nil || !bytes.Contains(metrics, []byte("\nillixr_integrator_samples_total ")) {
				t.Errorf("metrics-out: %v\n%s", err, metrics)
			}
			for _, path := range []string{traceOut, metricsOut} {
				if !strings.Contains(stdout.String(), "wrote "+path+"\n") {
					t.Errorf("Run did not report %s:\n%s", path, stdout.String())
				}
			}
			if r.Record != "" {
				if files, _ := filepath.Glob(r.Record + "*"); len(files) != 1 {
					t.Errorf("capture left %v, want the log alone", files)
				}
				l := decodeCapture(t, r.Record)
				if imu := l.CountByType()[wire.TypeIMU]; uint64(len(l.Records)) != r.Recorded() || imu != uint64(len(d.ds.IMU)) {
					t.Errorf("log holds %d records (%d IMU), Recorded() = %d, %d IMU sent",
						len(l.Records), imu, r.Recorded(), len(d.ds.IMU))
				}
			}
		})
	}
}

// (b) The QoS arm under more than one session: camera and QoE frames
// reach the pipeline through the batcher, the controller's epochs tick,
// /qos serves, and no batched frame's error was swallowed.
func TestReplicaQoSBatchesAcrossSessions(t *testing.T) {
	r := &Replica{QoSWorkers: 4, VIO: true, DebugAddr: "127.0.0.1:0"}
	addr := serve(t, r)
	epoch := r.QoS.Epoch()
	done := make(chan error)
	devs := []*device{
		dial(t, &Client{Addr: addr, Hello: wire.Hello{App: "a", Seed: 5}}, 5),
		dial(t, &Client{Addr: addr, Hello: wire.Hello{App: "b", Seed: 6}}, 6),
	}
	for _, d := range devs {
		go func() { done <- d.stream() }()
	}
	for range devs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	frames := uint64(len(devs[0].ds.Frames) + len(devs[1].ds.Frames))
	eventually(t, "every camera frame to reach VIO through the batcher", func() bool {
		return counter(r.Registry, "illixr_vio_frames_total") == frames
	})
	if n := counter(r.Registry, "illixr_qos_batch_flushes_total"); n == 0 {
		t.Error("no batch was flushed")
	}
	if n := counter(r.Registry, "illixr_qos_batch_frames_total"); n < frames {
		t.Errorf("%d frames batched, %d camera frames sent", n, frames)
	}
	eventually(t, "two controller epochs", func() bool { return r.QoS.Epoch() >= epoch+2 })
	var doc qos.Doc
	if err := json.Unmarshal([]byte(get(t, "http://"+r.DebugAddr+"/qos")), &doc); err != nil || len(doc.Kernels) != 2 {
		t.Errorf("/qos: %v, %+v", err, doc)
	}
	if errs := r.batching.DeferredErrors(); len(errs) != 0 {
		t.Errorf("batched frames failed: %v", errs)
	}
}

// The controller configuration moved out of package main; its decisions
// for a fixed stats script, and the /qos document after it, are pinned
// to what the parent's wireQoS literal produced.
func TestQoSConfigDecisionsPinned(t *testing.T) {
	ctl, err := qos.NewController(qosConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 60; e++ {
		// imgproc runs hot for 25 epochs, then both kernels go cold
		img, misses := int64(3000), 0
		if e >= 5 && e < 30 {
			img, misses = 12000+int64(e)*100, 3
		}
		ctl.Step([]qos.KernelStats{
			{Kernel: "imgproc", Frames: 6, Misses: misses, P99Us: img},
			{Kernel: "ssim", Frames: 6, P99Us: 1000},
		})
	}
	if got := fmt.Sprintf("%016x", ctl.LogFingerprint()); got != "089c4279f42179ac" {
		t.Errorf("decision fingerprint %s, pinned 089c4279f42179ac", got)
	}
	doc, _ := json.Marshal(ctl.QoSDoc())
	if got := fmt.Sprintf("%x", sha256.Sum256(doc)); got != "4d487d46a6318bf303af3305ea6abb12a3a21eca16f89911a7d0ee5e9098dc16" {
		t.Errorf("/qos document changed (sha256 %s):\n%s", got, doc)
	}
}

// fleetOf starts two replicas — one with everything on — and a gateway
// in front of them; the replicas start before any traffic (see
// Replica.Registry).
func fleetOf(t *testing.T, dir string, federate bool) (*Gateway, [2]*Replica, string) {
	t.Helper()
	reps := [2]*Replica{
		{Node: "replica-0", DebugAddr: "127.0.0.1:0", VIO: true, QoSWorkers: 4,
			Record: filepath.Join(dir, "r0.binlog")},
		{Node: "replica-1", DebugAddr: "127.0.0.1:0"},
	}
	g := &Gateway{Node: "gateway", DebugAddr: "127.0.0.1:0", SLOBoundMs: 30,
		ScrapeInterval: 10 * time.Millisecond, Fleet: fleet.Config{TokenSeed: 9},
		Record: filepath.Join(dir, "gw.binlog")}
	for _, r := range reps {
		g.Backends = append(g.Backends, serve(t, r))
		if federate {
			g.MetricURLs = append(g.MetricURLs, "http://"+r.DebugAddr)
		}
	}
	return g, reps, serve(t, g)
}

// (c) The gateway compositions illixr-gateway can build: admit, lose
// the hosting replica, resume on the survivor.
func TestGateway(t *testing.T) {
	for _, federate := range []bool{false, true} {
		t.Run(fmt.Sprintf("federate=%v", federate), func(t *testing.T) {
			g, reps, addr := fleetOf(t, t.TempDir(), federate)
			d := dial(t, &Client{Addr: addr, Hello: wire.Hello{App: "gw", Seed: 7}}, 7)
			d.mustStream(t)
			wel := d.Bridge.Welcome()
			rec, ok := g.Coord.Lookup(wel.ResumeToken)
			if !ok || wel.Resumed {
				t.Fatalf("fresh admission: record %v, welcome %+v", ok, wel)
			}
			if federate {
				var doc fleet.FleetDoc
				eventually(t, "/fleet to list both replicas live", func() bool {
					doc = fleet.FleetDoc{}
					_ = json.Unmarshal([]byte(get(t, "http://"+g.DebugAddr+"/fleet")), &doc)
					return len(doc.Replicas) == 2 && doc.Replicas[0].Live && doc.Replicas[1].Live
				})
				eventually(t, "a scraped MTP p99 to reach the SLO", func() bool {
					st := g.slo.Snapshot()
					return len(st) == 1 && st[0].Good+st[0].Bad > 0
				})
				var trace bytes.Buffer
				if err := g.WriteTrace(&trace); err != nil || !bytes.Contains(trace.Bytes(), []byte(fleet.CompGatewayUp)) ||
					!bytes.Contains(trace.Bytes(), []byte(core.CompIntegrator)) {
					t.Errorf("WriteTrace: %v; gateway hop and replica spans both expected in %d bytes", err, trace.Len())
				}
			} else if g.scraper != nil {
				t.Error("a gateway without metric URLs built a scraper")
			}

			// the hosting replica dies: the client is severed, and its token
			// takes it to the survivor with its session state
			reps[rec.Replica].Server.Abort(nil)
			eventually(t, "the severed client to notice", func() bool { return d.Bridge.Err() != nil })
			_ = d.Close()
			var again *device
			eventually(t, "the resume to be admitted", func() bool {
				c := &Client{Addr: addr, Hello: wire.Hello{App: "gw", Seed: 7, ResumeToken: wel.ResumeToken}}
				c.Hello.IMURateHz, c.Hello.CamRateHz = d.Hello.IMURateHz, d.Hello.CamRateHz
				if err := c.Start(); err != nil {
					var refused interface{ Retryable() bool }
					if !errors.As(err, &refused) || !refused.Retryable() {
						t.Fatalf("resume: %v", err)
					}
					return false
				}
				again = &device{Client: c}
				return true
			})
			defer again.Close()
			if w := again.Bridge.Welcome(); !w.Resumed || w.PoseEpoch != wel.PoseEpoch+1 {
				t.Errorf("resume welcome %+v after %+v", w, wel)
			}
			if now, _ := g.Coord.Lookup(wel.ResumeToken); now.Replica == rec.Replica {
				t.Errorf("resumed onto the dead replica %d", now.Replica)
			}
		})
	}
	if err := (&Gateway{Backends: []string{"a", "b"}, MetricURLs: []string{"http://a"}}).Start(); err == nil {
		t.Error("one metric URL for two replicas was accepted")
	}
}

// (d) Close returns everything: replicas (one with QoS, VIO and a
// capture), a federating gateway and a client leave no goroutine behind.
func TestCloseReturnsEverything(t *testing.T) {
	base := runtime.NumGoroutine()
	g, reps, addr := fleetOf(t, t.TempDir(), true)
	d := dial(t, &Client{Addr: addr, Hello: wire.Hello{App: "leak", Seed: 11},
		Record: filepath.Join(t.TempDir(), "client.binlog")}, 11)
	d.mustStream(t)
	eventually(t, "a scrape of both replicas", func() bool {
		doc, _ := g.scraper.FleetDoc().(fleet.FleetDoc)
		return len(doc.Replicas) == 2 && doc.Replicas[0].Live && doc.Replicas[1].Live
	})
	get(t, "http://"+g.DebugAddr+"/spans") // federates: opens connections to both replicas
	// one session never makes a multi-tile batch: park the QoS pool's
	// helpers the way a two-session flush would
	reps[0].pool.ForTiles("warm", 8, 1, func(lo, hi int) {})

	// a session that ends on both Byes leaves its replica leg parked at
	// both ends: Close must take down the gateway's idle list and the
	// replica's connection waiting for a Hello as well
	if err := wireSession(addr, 0, nil, mathx.Pose{}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ { // the second round must be a no-op
		if err := d.Close(); err != nil {
			t.Errorf("client close %d: %v", i, err)
		}
		if err := g.Close(closeCtx(t)); err != nil {
			t.Errorf("gateway close %d: %v", i, err)
		}
		for _, r := range reps {
			if err := r.Close(closeCtx(t)); err != nil {
				t.Errorf("%s close %d: %v", r.Node, i, err)
			}
		}
	}
	if d.Recorded() == 0 || g.Recorded() == 0 || reps[0].Recorded() == 0 {
		t.Errorf("captures: client %d, gateway %d, replica %d frames", d.Recorded(), g.Recorded(), reps[0].Recorded())
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines after Close, %d before Start:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// (e) Close order: work still parked in the batcher when Close starts
// is handled before the capture closes, so what it records is kept.
func TestCloseHandlesParkedFrameBeforeCaptureCloses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.binlog")
	r := &Replica{QoSWorkers: 2, Record: path}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	marker := wire.Frame{Type: wire.TypePing, Payload: wire.AppendPing(nil, wire.Ping{Seq: 77})}
	ran := make(chan error, 1)
	r.batching.Batcher.Submit("imgproc", 1, func() { ran <- r.capture.Record(binlog.DirUp, marker) })
	if err := r.Close(closeCtx(t)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("the parked frame ran after the capture closed: %v", err)
		}
	default:
		t.Fatal("Close left the parked frame unhandled")
	}
	if n := decodeCapture(t, path).CountByType()[wire.TypePing]; n != 1 {
		t.Fatalf("capture holds %d ping records, want 1", n)
	}
}
