// Command abpair judges a performance claim with a paired A/B: it runs one
// workload of ./benchmark alternately from a parent revision (A) and from
// the working tree (B), and tests only the metrics named before the run.
//
// Usage, from the repository root:
//
//	go run ./scripts/abpair -rev HEAD~1 -workload live_pipeline -seed 7 \
//	    -seconds 25 -claim throughput_per_s
//
// A is checked out with `git worktree add` into a temporary directory,
// removed at exit, and each tree builds ./benchmark once. The N pairs run in ABBA order (AB, BA, AB, …), each binary from
// its own tree's root. A run prints one JSON line last; a pair in which
// either run has failed > 0 or correct=false, or printed no line, is void.
// Each run's steal and idle shares of CPU time, from /proc/stat, print
// beside it.
//
// For each claimed metric abpair prints the median paired ratio B/A with
// the smallest and largest ratio, the pairs B wins, the exact one-sided
// sign-test p, and the spread of A's own runs: A's p25–p75 as a share of
// A's median, the noise a median gain has to clear. The claim holds at
// p ≤ 0.011 (9 of 10 pairs). Every other metric in the line prints as
// description only. The exit status is 0 when every claim holds, 1 when
// one does not, 2 on a usage, build or run error.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// claimAlpha is the largest sign-test p at which a claim holds: 9 wins of
// 10 pairs give p ≈ 0.0107.
const claimAlpha = 0.011

func main() {
	var (
		rev      = flag.String("rev", "HEAD~1", "parent revision (A), checked out with git worktree add")
		workload = flag.String("workload", "live_pipeline", "workload to run")
		seed     = flag.Int64("seed", 1, "seed of every run")
		seconds  = flag.Float64("seconds", 25, "timed window of every run")
		pairs    = flag.Int("pairs", 10, "number of ABBA pairs")
		claim    = flag.String("claim", "", "comma-separated metrics the change claims to improve (required)")
	)
	flag.Parse()
	if *claim == "" || *pairs < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: abpair -claim metric[,metric] [-rev REV] [-workload W] [-seed N] [-seconds S] [-pairs N]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code, err := run(ctx, *rev, *workload, *seed, *seconds, *pairs, strings.Split(*claim, ","))
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "abpair:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(ctx context.Context, rev, workload string, seed int64, seconds float64, n int, claims []string) (int, error) {
	better, err := directions("BENCHMARK.json")
	if err != nil {
		return 0, err
	}
	for _, m := range claims {
		if _, ok := better[m]; !ok {
			return 0, fmt.Errorf("claimed metric %q is not an end-to-end metric of BENCHMARK.json", m)
		}
	}
	tmp, err := os.MkdirTemp("", "abpair-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	treeA := filepath.Join(tmp, "a")
	if out, err := exec.CommandContext(ctx, "git", "worktree", "add", "--detach", treeA, rev).CombinedOutput(); err != nil {
		return 0, fmt.Errorf("git worktree add %s: %v\n%s", rev, err, out)
	}
	defer exec.Command("git", "worktree", "remove", "--force", treeA).Run()
	treeB, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	trees := [2]string{treeA, treeB}
	var bins [2]string
	for i, tree := range trees {
		bins[i] = filepath.Join(tmp, "bench-"+"AB"[i:i+1])
		build := exec.CommandContext(ctx, "go", "build", "-o", bins[i], "./benchmark")
		build.Dir = tree
		if out, err := build.CombinedOutput(); err != nil {
			return 0, fmt.Errorf("building %s: %v\n%s", tree, err, out)
		}
	}
	fmt.Printf("abpair: %s seed %d, %g s, %d ABBA pairs; A = %s, B = %s; claim: %s\n",
		workload, seed, seconds, n, treeA, treeB, strings.Join(claims, ", "))
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0"}
	ps := make([]pair, n)
	for i := range ps {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, side := range order {
			r, err := runOnce(ctx, bins[side], trees[side], args)
			if ctx.Err() != nil {
				return 0, ctx.Err()
			}
			ps[i][side] = r
			fmt.Printf("pair %2d %s  %s\n", i+1, "AB"[side:side+1], r.describe(err))
		}
	}
	return report(os.Stdout, ps, claims, better), nil
}

// result is one run's last JSON line, plus its share of CPU time the
// hypervisor stole and the CPUs spent idle while it ran.
type result struct {
	ok      bool // the run printed its line
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	steal, idle float64
}

// pair is A's run and B's run.
type pair [2]result

// void reports whether the pair cannot be judged: a run printed no line,
// failed an operation or displayed a frame that was not correct.
func (p pair) void() bool {
	for _, r := range p {
		if !r.ok || r.Failed > 0 || !r.Correct {
			return true
		}
	}
	return false
}

func (r result) describe(err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "correct=%v failed=%d steal=%.1f%% idle=%.1f%%", r.Correct, r.Failed, 100*r.steal, 100*r.idle)
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%.6g", k, r.Metrics[k].Value)
	}
	return b.String()
}

// runOnce runs bin from dir and parses the last JSON line it prints.
func runOnce(ctx context.Context, bin, dir string, args []string) (result, error) {
	before, _ := readCPU()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	after, _ := readCPU()
	r, perr := parseLast(out)
	r.steal, r.idle = after.share(before)
	if err == nil {
		err = perr
	}
	return r, err
}

// parseLast decodes the last line of out that is a JSON object.
func parseLast(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for i := len(lines) - 1; i >= 0; i-- {
		line := bytes.TrimSpace(lines[i])
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var r result
		if err := json.Unmarshal(line, &r); err != nil {
			return result{}, fmt.Errorf("last JSON line: %v", err)
		}
		r.ok = true
		return r, nil
	}
	return result{}, errors.New("no JSON line in the output")
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, idle, steal float64 }

func readCPU() (cpuTimes, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	if !s.Scan() {
		return cpuTimes{}, errors.New("/proc/stat is empty")
	}
	return parseCPU(s.Text())
}

// parseCPU reads "cpu user nice system idle iowait irq softirq steal …";
// idle counts iowait too.
func parseCPU(line string) (cpuTimes, error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var c cpuTimes
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuTimes{}, err
		}
		c.total += v
		switch i {
		case 3, 4:
			c.idle += v
		case 7:
			c.steal += v
		}
	}
	return c, nil
}

// share is the steal and idle fractions of the CPU time between before and c.
func (c cpuTimes) share(before cpuTimes) (steal, idle float64) {
	d := c.total - before.total
	if d <= 0 {
		return 0, 0
	}
	return (c.steal - before.steal) / d, (c.idle - before.idle) / d
}

// directions maps every end-to-end metric BENCHMARK.json lists (the ones
// a run's JSON line carries) to whether higher is better.
func directions(path string) (map[string]bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%v (run abpair from the repository root)", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	m := map[string]bool{}
	for _, x := range spec.EndToEnd {
		m[x.Name] = x.Better == "higher"
	}
	return m, nil
}

// verdict is one metric over the valid pairs.
type verdict struct {
	valid, wins, ties int
	medianRatio       float64 // median of B/A over the valid pairs
	minRatio          float64
	maxRatio          float64
	aIQR              float64 // A's p25–p75 over A's median
	p                 float64 // one-sided sign test: P(wins ≥ observed | no effect), ties dropped
}

// judge compares metric over the pairs that are not void; higher says
// whether a higher value is better.
func judge(ps []pair, metric string, higher bool) verdict {
	var v verdict
	var ratios, as []float64
	for _, p := range ps {
		if p.void() {
			continue
		}
		a, okA := p[0].Metrics[metric]
		b, okB := p[1].Metrics[metric]
		if !okA || !okB {
			continue
		}
		v.valid++
		ratios = append(ratios, b.Value/a.Value)
		as = append(as, a.Value)
		switch {
		case b.Value == a.Value:
			v.ties++
		case (b.Value > a.Value) == higher:
			v.wins++
		}
	}
	v.medianRatio = median(ratios)
	v.minRatio, v.maxRatio = math.NaN(), math.NaN()
	if len(ratios) > 0 {
		v.minRatio, v.maxRatio = slices.Min(ratios), slices.Max(ratios)
	}
	q1, q2, q3 := quartiles(as)
	v.aIQR = (q3 - q1) / q2
	v.p = signTestP(v.wins, v.valid-v.ties)
	return v
}

// quartiles are the 25th, 50th and 75th percentiles by the benchmark's
// own definition (Python's statistics.quantiles, method "exclusive"); NaN
// with no values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// signTestP is the exact one-sided sign-test p: the chance of k or more
// wins in n fair coin flips.
func signTestP(k, n int) float64 {
	if n == 0 {
		return 1
	}
	p := 0.0
	for i := k; i <= n; i++ {
		p += binom(n, i)
	}
	return p / math.Exp2(float64(n))
}

func binom(n, k int) float64 {
	c := 1.0
	for i := 1; i <= k; i++ {
		c = c * float64(n-k+i) / float64(i)
	}
	return c
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// report prints the verdict on each claimed metric and the description of
// every other metric, and returns the exit status.
func report(w io.Writer, ps []pair, claims []string, better map[string]bool) int {
	void := 0
	for _, p := range ps {
		if p.void() {
			void++
		}
	}
	fmt.Fprintf(w, "void pairs: %d of %d\n", void, len(ps))
	code := 0
	claimed := map[string]bool{}
	for _, m := range claims {
		claimed[m] = true
		v := judge(ps, m, better[m])
		holds := v.valid > 0 && v.p <= claimAlpha
		word := "does not hold"
		if holds {
			word = "holds"
		} else {
			code = 1
		}
		fmt.Fprintf(w, "CLAIM %s: median B/A %.4f (min %.4f, max %.4f), A's p25–p75 %.2f%% of its median, B better in %d of %d valid pairs (%d ties), sign-test p = %.5f: claim %s (p ≤ %g)\n",
			m, v.medianRatio, v.minRatio, v.maxRatio, 100*v.aIQR, v.wins, v.valid, v.ties, v.p, word, claimAlpha)
	}
	var others []string
	for _, p := range ps {
		for _, r := range p {
			for m := range r.Metrics {
				if !claimed[m] && !slices.Contains(others, m) {
					others = append(others, m)
				}
			}
		}
	}
	sort.Strings(others)
	for _, m := range others {
		v := judge(ps, m, better[m])
		fmt.Fprintf(w, "describe %s: median B/A %.4f, B better in %d of %d valid pairs (not judged)\n", m, v.medianRatio, v.wins, v.valid)
	}
	return code
}
