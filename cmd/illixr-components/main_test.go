package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRefusesNonPositiveDuration runs the command in a child process with
// -duration 0 and -1: each is a usage error naming the flag, exit 2.
func TestRefusesNonPositiveDuration(t *testing.T) {
	if args := os.Getenv("ILLIXR_CMD_ARGS"); args != "" {
		os.Args = append([]string{"illixr-components"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	for _, args := range []string{"-duration -1", "-duration 0"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRefusesNonPositiveDuration$")
		cmd.Env = append(os.Environ(), "ILLIXR_CMD_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag -duration: must be positive") {
			t.Errorf("%s %s: %v\n%s", "illixr-components", args, err, out)
		}
	}
}
