// Command illixr-components characterizes components in isolation on
// their standalone datasets (§III-D, §IV-B) — the analogue of ILLIXR v1's
// all.sh: VIO on Vicon Room 1 Medium, scene reconstruction on dyson_lab,
// eye tracking on OpenEDS-style images, reprojection/hologram on 2K
// frames, and audio on 48 kHz clips.
package main

import (
	"flag"
	"fmt"
	"os"

	"illixr/internal/bench"
	"illixr/internal/netxr/node"
)

func main() {
	duration := flag.Float64("duration", 15, "VIO dataset length (virtual seconds)")
	flag.Parse()
	// a zero or negative length panics drawing Table VI's bars
	if err := node.CheckPositive(flag.CommandLine, "duration"); err != nil {
		fmt.Fprintln(flag.CommandLine.Output(), err)
		flag.Usage()
		os.Exit(2)
	}

	w := os.Stdout
	fmt.Fprintln(w, "ILLIXR-Go standalone component characterization (ILLIXR v1 analogue)")
	fmt.Fprintln(w)
	bench.Table6(w, *duration)
	bench.Table7(w)
	fmt.Fprintln(w)
	bench.Fig8(w)
	fmt.Fprintln(w)
	bench.AblationVIO(w, *duration)
}
