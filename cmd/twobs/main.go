// Command twobs reconstructs what a fleet did from its durable artifacts:
// it merges each job's status journal, claim chain, lease heartbeat, and
// span records from one or more store roots into a causally-ordered per-job
// timeline, cross-checks the files against the fleet protocol (DESIGN.md
// §13–14), and reports violations — journal gaps, zombie writes, fencing
// token regressions, owner changes without a journaled takeover, takeover
// spans without journal records — as findings.
//
// Usage:
//
//	twobs [-format text|json] [-summary] [-strict] STOREDIR [STOREDIR...]
//
// Exit status: 0 clean (or warnings only), 1 protocol errors found (always,
// plus warnings under -strict), 2 usage or unreadable root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		format  = flag.String("format", "text", "output format: text or json")
		summary = flag.Bool("summary", false, "print only the fleet summary (per-node activity, latency percentiles)")
		strict  = flag.Bool("strict", false, "exit nonzero on warnings (torn tails) too, not just protocol errors")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: twobs [-format text|json] [-summary] [-strict] STOREDIR [STOREDIR...]")
		flag.PrintDefaults()
		return 2
	}
	rep, err := obs.Analyze(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "twobs:", err)
		return 2
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if *summary {
			slim := *rep
			slim.Jobs = nil
			err = enc.Encode(slim)
		} else {
			err = enc.Encode(rep)
		}
	case "text":
		if *summary {
			slim := *rep
			slim.Jobs = nil
			err = slim.WriteText(os.Stdout)
		} else {
			err = rep.WriteText(os.Stdout)
		}
	default:
		fmt.Fprintf(os.Stderr, "twobs: unknown -format %q (want text or json)\n", *format)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "twobs:", err)
		return 2
	}
	if rep.Errors > 0 || (*strict && rep.Warnings > 0) {
		return 1
	}
	return 0
}
