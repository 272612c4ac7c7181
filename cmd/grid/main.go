// Command grid runs the txkv server experiment grid described by a JSON
// config (scripts/experiments.json by default): for every experiment it
// sweeps connections × mixes × arrival rates across the configured
// engines, each cell an in-process server on an ephemeral loopback port
// driven over real TCP by the load generator, and merges every cell's
// per-repeat records into ONE CSV pair (grid.csv + grid.summary.csv) —
// the single artifact CI uploads.
//
// The config's shape:
//
//	{
//	  "keys": 1024, "zipf": 0.99, "seed": 1, "repeats": 1, "late_ms": 1,
//	  "engines": ["swisstm", "tl2", "tinystm", "rstm"],
//	  "experiments": [
//	    {"name": "closed-sweep", "mixes": ["transfer"], "conns": [1, 4],
//	     "rates": [0], "ops": 2000}
//	  ]
//	}
//
// A rate of 0 means closed loop; any positive rate is an open-loop cell
// at that fixed arrival rate in ops/sec.
//
// Usage:
//
//	grid                                # scripts/experiments.json → grid_runs/
//	grid -config my.json -out /tmp/g    # custom config and output dir
//	grid -ops 300                       # override every cell's op count (smoke)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"swisstm/internal/harness"
	"swisstm/internal/results"
	"swisstm/internal/txkv"
	"swisstm/internal/txkvclient"
	"swisstm/internal/txkvserver"
)

type gridConfig struct {
	Keys        int     `json:"keys"`
	Zipf        float64 `json:"zipf"`
	Seed        uint64  `json:"seed"`
	Repeats     int     `json:"repeats"`
	LateMs      float64 `json:"late_ms"`
	Engines     []string
	Experiments []gridExperiment `json:"experiments"`
}

type gridExperiment struct {
	Name  string    `json:"name"`
	Mixes []string  `json:"mixes"`
	Conns []int     `json:"conns"`
	Rates []float64 `json:"rates"`
	Ops   uint64    `json:"ops"`

	// Pipelining and commit coalescing (DESIGN.md §14). Pipeline > 1
	// switches the load clients to pipelined mode with that in-flight
	// window. CoalesceBatch is a grid axis like Conns: each entry is a
	// per-shard batch size for the launched server (0 = coalescing off),
	// defaulting to [0] when absent, so on/off twins of the same cell
	// land in the same CSV.
	Pipeline      int   `json:"pipeline"`
	CoalesceBatch []int `json:"coalesce_batch"`
}

func main() {
	var (
		config  = flag.String("config", "scripts/experiments.json", "experiment grid config")
		outDir  = flag.String("out", "grid_runs", "output directory for the merged CSV artifact")
		manager = flag.String("cm", "polka", "RSTM contention manager")
		opsOvr  = flag.Uint64("ops", 0, "override every cell's op count (0 = use config)")
	)
	flag.Parse()

	cfg, err := loadConfig(*config)
	if err != nil {
		fmt.Fprintln(os.Stderr, "grid:", err)
		os.Exit(2)
	}

	cells := 0
	for _, exp := range cfg.Experiments {
		cells += len(cfg.Engines) * len(exp.Mixes) * len(exp.Conns) * len(exp.Rates) *
			len(coalesceAxis(exp)) * cfg.Repeats
	}
	fmt.Printf("grid: %d experiments, %d cells → %s/grid.csv\n", len(cfg.Experiments), cells, *outDir)

	var all []results.Record
	oracleFailures := 0
	done := 0
	for _, exp := range cfg.Experiments {
		ops := exp.Ops
		if *opsOvr > 0 {
			ops = *opsOvr
		}
		for _, kind := range cfg.Engines {
			spec := harness.EngineSpec{Kind: kind, Manager: *manager}
			for _, mname := range exp.Mixes {
				mix, ok := txkv.MixByName(mname)
				if !ok {
					fmt.Fprintf(os.Stderr, "grid: %s: unknown mix %q\n", exp.Name, mname)
					os.Exit(2)
				}
				for _, rate := range exp.Rates {
					dist, mode := "uniform", "closed"
					if cfg.Zipf > 0 {
						dist = "zipf"
					}
					if rate > 0 {
						mode = "open"
					}
					wl := fmt.Sprintf("txkvsrv/%s-%s-%s", mix.Name, dist, mode)
					for _, nc := range exp.Conns {
						for _, cb := range coalesceAxis(exp) {
							for rep := 0; rep < cfg.Repeats; rep++ {
								rec, oerr, err := runCell(cfg, spec, exp, wl, mix, nc, rate, cb, ops, rep)
								if err != nil {
									fmt.Fprintf(os.Stderr, "grid: %s %s %s conns=%d: %v\n", exp.Name, kind, wl, nc, err)
									os.Exit(1)
								}
								all = append(all, rec)
								done++
								fmt.Printf("[%d/%d] %s %s %s conns=%d coalesce=%d rep=%d: tput=%.0f/s p99=%.0fns srv_p99=%dns aborts=%d late=%d\n",
									done, cells, exp.Name, kind, wl, nc, cb, rep,
									rec.Throughput, rec.LatP99Ns, rec.SrvP99Ns, rec.Aborts, rec.LateOps)
								if oerr != nil {
									oracleFailures++
									fmt.Fprintf(os.Stderr, "grid: ORACLE FAILED %s %s %s conns=%d rep=%d: %v\n",
										exp.Name, kind, wl, nc, rep, oerr)
								}
							}
						}
					}
				}
			}
		}
	}

	if err := results.WriteFiles(*outDir, "grid", "csv", all); err != nil {
		fmt.Fprintln(os.Stderr, "grid:", err)
		os.Exit(1)
	}
	fmt.Printf("grid: wrote %d records to %s/grid.csv (+ grid.summary.csv)\n", len(all), *outDir)
	if oracleFailures > 0 {
		fmt.Fprintf(os.Stderr, "grid: %d cell(s) failed their oracles\n", oracleFailures)
		os.Exit(1)
	}
}

// coalesceAxis is an experiment's commit-coalescing sweep: the listed
// batch sizes, or the single "off" cell when the config names none.
func coalesceAxis(exp gridExperiment) []int {
	if len(exp.CoalesceBatch) == 0 {
		return []int{0}
	}
	return exp.CoalesceBatch
}

// runCell launches a fresh in-process server for one grid cell, drives
// it over TCP, and returns the cell's record plus any oracle failure.
func runCell(cfg gridConfig, spec harness.EngineSpec, exp gridExperiment, wl string, mix txkv.Mix, nc int, rate float64, cb int, ops uint64, rep int) (results.Record, error, error) {
	srv, err := txkvserver.Start("127.0.0.1:0", txkvserver.Config{Engine: spec, Keys: cfg.Keys, CoalesceBatch: cb})
	if err != nil {
		return results.Record{}, nil, fmt.Errorf("launch: %w", err)
	}
	defer srv.Close()

	runSeed := cfg.Seed
	if runSeed != 0 {
		runSeed = harness.DeriveSeed(runSeed, exp.Name+"/"+spec.Kind+"/"+wl, nc*1000+cb, rep)
	}
	res, err := txkvclient.Run(txkvclient.LoadConfig{
		Addr: srv.Addr().String(), Mix: mix, Conns: nc,
		Keys: cfg.Keys, Zipf: cfg.Zipf, Seed: runSeed,
		Ops: ops, Rate: rate,
		LateThreshold: time.Duration(cfg.LateMs * float64(time.Millisecond)),
		Pipeline:      exp.Pipeline,
	})
	if err != nil {
		return results.Record{}, nil, err
	}
	rec := res.Record(exp.Name, wl, spec.DisplayName(), spec.Kind, nc, rep, runSeed)
	rec.Pipeline, rec.CoalesceBatch = exp.Pipeline, cb
	return rec, res.OracleErr, nil
}

func loadConfig(path string) (gridConfig, error) {
	var cfg gridConfig
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		return cfg, fmt.Errorf("%s: %w", path, err)
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 1024
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = 1
	}
	if cfg.LateMs <= 0 {
		cfg.LateMs = 1
	}
	if cfg.Zipf < 0 || cfg.Zipf >= 1 {
		return cfg, fmt.Errorf("%s: zipf %v out of range (want 0 for uniform, or θ in (0,1))", path, cfg.Zipf)
	}
	if len(cfg.Engines) == 0 {
		cfg.Engines = []string{"swisstm", "tl2", "tinystm", "rstm"}
	}
	for _, kind := range cfg.Engines {
		switch kind {
		case "swisstm", "tl2", "tinystm", "rstm":
		default:
			return cfg, fmt.Errorf("%s: unknown engine %q", path, kind)
		}
	}
	if len(cfg.Experiments) == 0 {
		return cfg, fmt.Errorf("%s: no experiments", path)
	}
	for _, exp := range cfg.Experiments {
		if exp.Name == "" || len(exp.Mixes) == 0 || len(exp.Conns) == 0 || len(exp.Rates) == 0 || exp.Ops == 0 {
			return cfg, fmt.Errorf("%s: experiment %q needs name, mixes, conns, rates and ops", path, exp.Name)
		}
	}
	return cfg, nil
}
