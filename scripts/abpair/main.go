// Command abpair judges a performance claim with a paired A/B: it runs one
// workload of ./benchmark alternately from a parent revision (A) and from
// the working tree (B), and tests only the metrics named before the run.
//
// Usage, from the repository root:
//
//	go run ./scripts/abpair -rev HEAD~1 -workload offload_paced -seed 7 \
//	    -seconds 25 -claim allocs_per_op -guard latency.p99_us:0.10
//
// A is checked out with `git worktree add` into a temporary directory,
// removed at exit, and each tree builds ./benchmark once. The N pairs run in ABBA order (AB, BA, AB, …), each binary from
// its own tree's root. A run prints its `name value unit` rows and then
// one JSON line last; a pair in which either run has failed > 0 or
// correct=false, or printed no line, is void. Every row is a metric abpair
// can judge — the three end-to-end ones the JSON line carries (at full
// precision) and the detail rows above it — and a row printed as -1 was
// not measured in that run. Each run's steal and idle shares of CPU time,
// from /proc/stat, print beside it, and the failed checks of a run that
// has any below it.
//
// abpair adds two rows of its own to every run, from the exited process's
// rusage: proc.vcsw_per_op and proc.ivcsw_per_op, its voluntary and
// involuntary context switches over the whole process (set-up included)
// divided by the operations it attempted; lower is better.
//
// -claim takes any printed row; -guard takes only metrics BENCHMARK.json
// lists, under end_to_end or per_layer, and abpair's own two rows; any
// other name is a usage error. BENCHMARK.json says whether higher or lower is better; a claimed
// row it does not list is better higher when its unit is 1/s and lower
// otherwise, and a claimed name no run printed does not hold. For each
// claimed metric abpair prints the
// median paired ratio B/A with the smallest and largest ratio, the pairs
// B wins, the exact one-sided sign-test p, and the spread of A's own runs:
// A's p25–p75 as a share of A's median, the noise a median gain has to
// clear. The claim holds at p ≤ 0.011 (9 of 10 pairs). A guard
// metric:bound holds unless B's median over the valid pairs is worse than
// A's by more than bound (a fraction: 0.10 is 10 %). Every other metric
// prints as description only. The exit status is 0 when every claim and
// guard holds, 1 when one does not, 2 on a usage, build or run error.
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
	"syscall"
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
		claim    = flag.String("claim", "", "comma-separated metrics the change claims to improve")
		guard    = flag.String("guard", "", "comma-separated metric:bound pairs B must not be worse on by more than bound (a fraction)")
	)
	flag.Parse()
	if (*claim == "" && *guard == "") || *pairs < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: abpair [-claim metric[,metric]] [-guard metric:bound[,metric:bound]] [-rev REV] [-workload W] [-seed N] [-seconds S] [-pairs N]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code, err := run(ctx, *rev, *workload, *seed, *seconds, *pairs, *claim, *guard)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "abpair:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(ctx context.Context, rev, workload string, seed int64, seconds float64, n int, claimList, guardList string) (int, error) {
	better, err := directions("BENCHMARK.json")
	if err != nil {
		return 0, err
	}
	var claims []string
	if claimList != "" {
		claims = strings.Split(claimList, ",")
	}
	guards, err := parseGuards(guardList, better)
	if err != nil {
		return 0, err
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
	judged := append([]string(nil), claims...)
	for _, g := range guards {
		judged = append(judged, g.metric)
	}
	fmt.Printf("abpair: %s seed %d, %g s, %d ABBA pairs; A = %s, B = %s; claim: %s; guard: %s\n",
		workload, seed, seconds, n, treeA, treeB, strings.Join(claims, ", "), guardList)
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
			fmt.Printf("pair %2d %s  %s\n", i+1, "AB"[side:side+1], r.describe(err, judged))
		}
	}
	return report(os.Stdout, ps, claims, guards, better), nil
}

// guard is one -guard metric:bound: B's median may be worse than A's by
// at most bound, a fraction of A's median.
type guard struct {
	metric string
	bound  float64
}

// parseGuards reads the -guard list; every metric must be one
// BENCHMARK.json gives a direction.
func parseGuards(list string, better map[string]bool) ([]guard, error) {
	if list == "" {
		return nil, nil
	}
	var gs []guard
	for _, item := range strings.Split(list, ",") {
		name, bound, ok := strings.Cut(item, ":")
		b, err := strconv.ParseFloat(bound, 64)
		if !ok || err != nil || b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("guard %q: want metric:bound with a bound >= 0", item)
		}
		if _, known := better[name]; !known {
			return nil, fmt.Errorf("guarded metric %q is not a metric of BENCHMARK.json", name)
		}
		gs = append(gs, guard{metric: name, bound: b})
	}
	return gs, nil
}

// result is one run's output — its JSON line and the rows above it —
// plus its share of CPU time the hypervisor stole and the CPUs spent idle
// while it ran.
type result struct {
	ok        bool // the run printed its line
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	// Checks are the run's first failure messages, its `FAILED CHECK:`
	// rows (the JSON line does not carry them): they say why a pair is
	// void.
	Checks []string `json:"-"`
	// values holds every metric the run measured: the printed rows, with
	// the JSON line's metrics at full precision over their rounded rows.
	values      map[string]float64
	units       map[string]string
	steal, idle float64
}

// notMeasured is the value a row prints for a metric the run did not
// measure.
const notMeasured = -1

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

// describe prints the run's verdict fields, its JSON-line metrics and the
// judged metrics the JSON line does not carry.
func (r result) describe(err error, judged []string) string {
	if err != nil {
		return "error: " + err.Error()
	}
	names := make([]string, 0, len(r.Metrics)+len(procRows))
	for k := range r.Metrics {
		names = append(names, k)
	}
	for _, k := range procRows {
		if _, ok := r.values[k]; ok {
			names = append(names, k)
		}
	}
	for _, k := range judged {
		if _, ok := r.Metrics[k]; !ok && !slices.Contains(names, k) {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "correct=%v failed=%d steal=%.1f%% idle=%.1f%%", r.Correct, r.Failed, 100*r.steal, 100*r.idle)
	for _, k := range names {
		if v, ok := r.values[k]; ok {
			fmt.Fprintf(&b, " %s=%.6g", k, v)
		} else {
			fmt.Fprintf(&b, " %s=unmeasured", k)
		}
	}
	for _, c := range r.Checks {
		fmt.Fprintf(&b, "\n    failed check: %s", c)
	}
	return b.String()
}

// runOnce runs bin from dir and parses what it prints.
func runOnce(ctx context.Context, bin, dir string, args []string) (result, error) {
	before, _ := readCPU()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	after, _ := readCPU()
	r, perr := parseRun(out)
	r.steal, r.idle = after.share(before)
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.addSwitches(ru.Nvcsw, ru.Nivcsw)
		}
	}
	if err == nil {
		err = perr
	}
	return r, err
}

// procRows are the rows abpair measures itself; both are better lower.
var procRows = [...]string{"proc.vcsw_per_op", "proc.ivcsw_per_op"}

// addSwitches records a parsed run's voluntary and involuntary context
// switches per attempted operation. A run that printed no line or
// attempted nothing gets neither row.
func (r *result) addSwitches(vcsw, ivcsw int64) {
	if !r.ok || r.Attempted <= 0 {
		return
	}
	for i, n := range [...]int64{vcsw, ivcsw} {
		r.values[procRows[i]] = float64(n) / float64(r.Attempted)
		r.units[procRows[i]] = "count"
	}
}

// parseRun decodes the last line of out that is a JSON object and every
// `name value unit` row printed above it. A row whose value is
// notMeasured, or a JSON metric that is, is left out.
func parseRun(out []byte) (result, error) {
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
		r.values, r.units = map[string]float64{}, map[string]string{}
		for _, row := range lines[:i] {
			if c, ok := strings.CutPrefix(string(row), "FAILED CHECK: "); ok {
				r.Checks = append(r.Checks, c)
			} else if name, v, unit, ok := parseRow(string(row)); ok {
				r.values[name], r.units[name] = v, unit
			}
		}
		for name, m := range r.Metrics {
			if m.Value != notMeasured {
				r.values[name], r.units[name] = m.Value, m.Unit
			} else {
				delete(r.values, name)
			}
		}
		return r, nil
	}
	return result{}, errors.New("no JSON line in the output")
}

// parseRow reads one `name value unit` row; ok is false for any other
// line (the header, the attempted/failed line) and for a row that was not
// measured.
func parseRow(line string) (name string, v float64, unit string, ok bool) {
	f := strings.Fields(line)
	if len(f) != 3 || strings.HasPrefix(f[0], "#") {
		return "", 0, "", false
	}
	v, err := strconv.ParseFloat(f[1], 64)
	if err != nil || v == notMeasured {
		return "", 0, "", false
	}
	return f[0], v, f[2], true
}

// higherIsBetter is the direction of metric m: BENCHMARK.json's when it
// lists m, else higher for a rate (unit 1/s) and lower for anything else,
// by the unit the runs printed.
func higherIsBetter(ps []pair, m string, better map[string]bool) bool {
	if h, ok := better[m]; ok {
		return h
	}
	for _, p := range ps {
		for _, r := range p {
			if u, ok := r.units[m]; ok {
				return u == "1/s"
			}
		}
	}
	return false
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

// directions maps every metric BENCHMARK.json lists, end to end and per
// layer, and abpair's own rows to whether higher is better.
func directions(path string) (map[string]bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%v (run abpair from the repository root)", err)
	}
	type metric struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	}
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	m := map[string]bool{}
	for _, x := range append(spec.EndToEnd, spec.PerLayer...) {
		m[x.Name] = x.Better == "higher"
	}
	for _, name := range procRows {
		m[name] = false
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
	medianA, medianB  float64
	p                 float64 // one-sided sign test: P(wins ≥ observed | no effect), ties dropped
}

// judge compares metric over the pairs that are not void; higher says
// whether a higher value is better.
func judge(ps []pair, metric string, higher bool) verdict {
	var v verdict
	var ratios, as, bs []float64
	for _, p := range ps {
		if p.void() {
			continue
		}
		a, okA := p[0].values[metric]
		b, okB := p[1].values[metric]
		if !okA || !okB {
			continue
		}
		v.valid++
		if a != 0 { // a ratio to zero is no measurement of the change
			ratios = append(ratios, b/a)
		}
		as = append(as, a)
		bs = append(bs, b)
		switch {
		case b == a:
			v.ties++
		case (b > a) == higher:
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
	v.medianA, v.medianB = median(as), median(bs)
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

// holds reports whether a guard holds on v: B's median is at most bound
// worse than A's. A metric no valid pair measured does not hold.
func (g guard) holds(v verdict, higher bool) bool {
	if v.valid == 0 {
		return false
	}
	if higher {
		return v.medianB >= v.medianA*(1-g.bound)
	}
	return v.medianB <= v.medianA*(1+g.bound)
}

// report prints the verdict on each claimed and guarded metric and the
// description of every other metric, and returns the exit status.
func report(w io.Writer, ps []pair, claims []string, guards []guard, better map[string]bool) int {
	void := 0
	for _, p := range ps {
		if p.void() {
			void++
		}
	}
	fmt.Fprintf(w, "void pairs: %d of %d\n", void, len(ps))
	code := 0
	judged := map[string]bool{}
	for _, m := range claims {
		judged[m] = true
		v := judge(ps, m, higherIsBetter(ps, m, better))
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
	for _, g := range guards {
		judged[g.metric] = true
		v := judge(ps, g.metric, better[g.metric])
		word := "holds"
		if !g.holds(v, better[g.metric]) {
			word, code = "does not hold", 1
		}
		dir := "lower"
		if better[g.metric] {
			dir = "higher"
		}
		fmt.Fprintf(w, "GUARD %s: median A %.6g, B %.6g (B/A of medians %.4f; %s is better), A's p25–p75 %.2f%% of its median, B better in %d of %d valid pairs: guard %s (at most %.4g worse)\n",
			g.metric, v.medianA, v.medianB, v.medianB/v.medianA, dir, 100*v.aIQR, v.wins, v.valid, word, g.bound)
	}
	var others []string
	for _, p := range ps {
		for _, r := range p {
			for m := range r.values {
				if !judged[m] && !slices.Contains(others, m) {
					others = append(others, m)
				}
			}
		}
	}
	sort.Strings(others)
	for _, m := range others {
		v := judge(ps, m, higherIsBetter(ps, m, better))
		if _, known := better[m]; !known {
			fmt.Fprintf(w, "describe %s: median B/A %.4f over %d valid pairs (not in BENCHMARK.json, not judged)\n", m, v.medianRatio, v.valid)
			continue
		}
		fmt.Fprintf(w, "describe %s: median B/A %.4f, B better in %d of %d valid pairs (not judged)\n", m, v.medianRatio, v.wins, v.valid)
	}
	return code
}
