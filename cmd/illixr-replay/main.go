// Command illixr-replay turns a binlog capture back into traffic
// (DESIGN.md §13). Without -addr it runs the 1× virtual-time regression
// replay: the recorded uplink is re-driven through the deterministic
// perception core and folded into a fingerprint, printed — or checked
// bit-exactly against a golden (-golden), or saved as one
// (-write-golden). With -addr and -fanout N it stamps N fresh session
// identities onto the recording and drives them concurrently into a
// live gateway or server as synthetic load.
//
// Usage:
//
//	illixr-replay -log run.binlog                         # stats + fingerprint
//	illixr-replay -log run.binlog -write-golden run.gold.json
//	illixr-replay -log run.binlog -golden run.gold.json   # exit 1 on drift
//	illixr-replay -log run.binlog -addr localhost:7400 -fanout 8 -speed 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sort"
	"time"

	"illixr/internal/netxr/binlog"
	"illixr/internal/netxr/node"
	"illixr/internal/netxr/replay"
	"illixr/internal/netxr/wire"
)

func main() {
	logPath := flag.String("log", "", "binlog capture to replay (required)")
	golden := flag.String("golden", "", "assert the fingerprint matches this golden JSON")
	writeGolden := flag.String("write-golden", "", "write the fingerprint as golden JSON to this file")
	addr := flag.String("addr", "", "live gateway/server address for fan-out replay")
	fanout := flag.Int("fanout", 1, "number of fresh-identity replayed clients (with -addr)")
	speed := flag.Float64("speed", 0, "pacing vs recorded time: 1 = recorded, 0 = flat out")
	timeout := flag.Float64("timeout", 5, "handshake/drain timeout seconds")
	app := flag.String("app", "", "override the recorded application label")
	flag.Parse()
	if err := checkFlags(flag.CommandLine, *speed); err != nil {
		fmt.Fprintln(flag.CommandLine.Output(), err)
		flag.Usage()
		os.Exit(2)
	}

	if *logPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	raw, err := os.ReadFile(*logPath)
	if err != nil {
		log.Fatalf("read %s: %v", *logPath, err)
	}
	l, err := binlog.DecodeLog(raw, nil)
	if err != nil {
		log.Fatalf("read %s: %v", *logPath, err)
	}
	up := 0
	for _, r := range l.Records {
		if r.Dir == binlog.DirUp {
			up++
		}
	}
	fmt.Printf("%s: %d records (%d up / %d down), %d bytes, session %d app %q seed %d label %q\n",
		*logPath, len(l.Records), up, len(l.Records)-up, len(raw)-l.TornBytes,
		l.Meta.Session, l.Meta.App, l.Meta.Seed, l.Meta.Label)
	if l.Torn > 0 {
		fmt.Printf("  torn tail: %d record(s), %d bytes skipped\n", l.Torn, l.TornBytes)
	}
	byType := l.CountByType()
	types := make([]int, 0, len(byType))
	for t := range byType {
		types = append(types, int(t))
	}
	sort.Ints(types)
	for _, t := range types {
		fmt.Printf("  %-12v %d\n", wire.Type(t), byType[wire.Type(t)])
	}

	if *addr != "" {
		runFanOut(l, *addr, *fanout, *speed, *timeout, *app)
		return
	}

	fp, err := replay.Compute(l)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	out, _ := json.MarshalIndent(fp, "", "  ")
	if *writeGolden != "" {
		if err := os.WriteFile(*writeGolden, append(out, '\n'), 0o644); err != nil {
			log.Fatalf("write-golden: %v", err)
		}
		fmt.Printf("wrote %s\n", *writeGolden)
		return
	}
	if *golden != "" {
		gb, err := os.ReadFile(*golden)
		if err != nil {
			log.Fatalf("golden: %v", err)
		}
		var want replay.Fingerprint
		if err := json.Unmarshal(gb, &want); err != nil {
			log.Fatalf("golden: %v", err)
		}
		if !fp.Equal(want) {
			fmt.Printf("FINGERPRINT DRIFT vs %s: %s\n", *golden, fp.Diff(want))
			os.Exit(1)
		}
		fmt.Printf("fingerprint matches %s (pose epochs %v)\n", *golden, fp.PoseEpochs)
		return
	}
	fmt.Println(string(out))
}

// checkFlags refuses the values flag parses but the command cannot run
// with, as flag's own parse errors are refused: a negative -fanout panics
// sizing the results, zero reports "0/0 admitted" as a success, a
// -timeout <= 0 fails every dial at once, and a negative -speed is no
// pace at all.
func checkFlags(fs *flag.FlagSet, speed float64) error {
	if err := node.CheckPositive(fs, "fanout", "timeout"); err != nil {
		return err
	}
	if speed < 0 {
		return fmt.Errorf("invalid value %v for flag -speed: must not be negative", speed)
	}
	return nil
}

func runFanOut(l *binlog.Log, addr string, n int, speed, timeoutSec float64, app string) {
	opt := replay.Options{
		Speed:   speed,
		App:     app,
		Timeout: time.Duration(timeoutSec * float64(time.Second)),
	}
	start := time.Now()
	results := replay.FanOut(n, func(int) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, opt.Timeout)
	}, l, opt)
	admitted, lost, poses, firstErr := replay.Tally(results)
	fmt.Printf("fan-out: %d/%d admitted, %d uplink frames lost, %d poses back in %.2fs\n",
		admitted, n, lost, poses, time.Since(start).Seconds())
	for i, r := range results {
		status := "ok"
		if r.Err != nil {
			status = r.Err.Error()
		}
		fmt.Printf("  client %d: session %d epoch %d sent %d recv %d poses %d — %s\n",
			i, r.Session, r.PoseEpoch, r.Sent, r.Received, r.Poses, status)
	}
	if firstErr != nil || lost > 0 {
		os.Exit(1)
	}
}
