// Command paybench is the repository's end-to-end benchmark: it deploys
// Astro II in-process over the simulated network, drives it through the
// public client API with an open-loop phase (fixed send schedule,
// latency from the intended send time) and a closed-loop phase (fixed
// number of payments outstanding), audits the deployment's state, and
// prints one JSON result line.
//
//	paybench --workload transfer --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, and the spans of the
// run are written under .bench_build/trace/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: transfer, client-signed or sharded-durable")
	seed := flag.Uint64("seed", 1, "workload seed: drives payment draws and network jitter")
	seconds := flag.Int("seconds", 10, "measured seconds per run (warm-up, open loop, closed loop)")
	trace := flag.Int("trace", 0, "1: traced run that reports per-layer metrics")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "paybench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "paybench: --seconds must be at least 1")
		os.Exit(2)
	}
	res, err := execute(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paybench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paybench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line; host and notes precede it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	host  hostRecord
	notes []string
}

type hostRecord struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func newHostRecord(w workload, seed uint64, run time.Duration, traced bool) hostRecord {
	return hostRecord{
		Workload: w.name, Seed: seed, Seconds: int(run / time.Second), Trace: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

// print writes the host record, one line per metric, any notes, and
// last the JSON result line.
func (r *result) print(f *os.File) error {
	host, err := json.Marshal(r.host)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "host %s\n", host)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(f, "note:", n)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}
