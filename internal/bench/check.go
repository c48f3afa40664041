package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Every gated report type has a Check method holding the assertions CI
// enforces on it (scripts/benchcheck, scripts/check.sh) — next to the
// struct they read, so a field rename cannot leave a gate reading zero.

// failures accumulates a Check method's findings.
type failures []error

func (f *failures) addf(format string, args ...any) {
	*f = append(*f, fmt.Errorf(format, args...))
}

type checker interface{ Check() []error }

// checkKinds maps a benchcheck kind to a fresh report of its type.
var checkKinds = map[string]func() checker{
	"parallel": func() checker { return new(parallelReport) },
	"network":  func() checker { return new(networkReport) },
	"qos":      func() checker { return new(qosReport) },
	"trace":    func() checker { return new(trace) },
}

// CheckFile decodes the document of the given kind (an experiment name,
// or "trace" for a Chrome trace) from path and returns what its Check
// method finds wrong; err is for a file that cannot be checked at all.
// Reports are decoded strictly — a field the report type does not have
// is schema drift, not something to skip.
func CheckFile(kind, path string) (failed []error, err error) {
	mk, ok := checkKinds[kind]
	if !ok {
		var kinds []string
		for k := range checkKinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		return nil, fmt.Errorf("unknown kind %q (valid: %s)", kind, strings.Join(kinds, " "))
	}
	rep := mk()
	// a Chrome trace carries viewer fields the check does not read
	if err := readReport(path, rep, kind != "trace"); err != nil {
		return nil, err
	}
	return rep.Check(), nil
}

func readReport(path string, into any, strict bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// trace is the part of a Chrome trace_event file (illixr-run -trace-out)
// the smoke check reads. Pointer fields tell a missing key from a zero.
type trace struct {
	TraceEvents []struct {
		Name string   `json:"name"`
		Ph   string   `json:"ph"`
		Ts   *float64 `json:"ts"`
		Dur  float64  `json:"dur"`
		Pid  *int     `json:"pid"`
		Tid  *int     `json:"tid"`
	} `json:"traceEvents"`
}

// Check requires a non-empty trace whose every event carries ph, name,
// pid and tid, with non-negative timestamps on the complete (ph=X)
// events and at least one of those. It stops at the first bad event.
func (tr *trace) Check() []error {
	var f failures
	if len(tr.TraceEvents) == 0 {
		f.addf("trace has no traceEvents")
		return f
	}
	complete := 0
	for i, ev := range tr.TraceEvents {
		switch {
		case ev.Ph == "" || ev.Name == "":
			f.addf("event %d missing ph or name: %+v", i, ev)
		case ev.Pid == nil || ev.Tid == nil:
			f.addf("event %d missing pid/tid", i)
		case ev.Ph == "X" && (ev.Ts == nil || *ev.Ts < 0 || ev.Dur < 0):
			f.addf("complete event %d has bad ts/dur", i)
		case ev.Ph == "X":
			complete++
		}
		if len(f) > 0 {
			return f
		}
	}
	if complete == 0 {
		f.addf("trace has no complete (ph=X) events")
	}
	return f
}
