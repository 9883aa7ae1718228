// Command april compiles and runs a Mul-T mini program on a simulated
// APRIL/ALEWIFE machine.
//
//	april [flags] program.mt        # or - for stdin
//
// Examples:
//
//	april -n 8 examples/progs/fib.mt
//	april -n 16 -lazy -machine april-custom prog.mt
//	april -n 8 -alewife -stats prog.mt
//	april -n 8 -alewife -trace trace.json -timeline util.csv prog.mt
//	april -n 64 -alewife -serve :8080 prog.mt
//	april -n 8 -alewife -faults -fault-seed 3 -check prog.mt
//	april -n 8 -alewife -check -autopsy prog.mt
//	april -tier reference prog.mt   # the simulator's oracle tier
//	april -interp prog.mt           # reference interpreter
//
// Checkpoint/restore and divergence bisection:
//
//	april -n 8 -alewife -checkpoint-every 100000 -checkpoint-dir ckpt prog.mt
//	april -restore ckpt/ckpt-000000400000.img       # resume a killed run
//	april -bisect ckpt                              # pin the first violating cycle
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"april"
)

func main() {
	var (
		nProcs  = flag.Int("n", 1, "number of processors")
		machine = flag.String("machine", "april", "machine profile: april | april-custom | encore")
		lazy    = flag.Bool("lazy", false, "lazy task creation (instead of eager futures)")
		seq     = flag.Bool("seq", false, "strip futures (sequential 'T seq' compilation)")
		alewife = flag.Bool("alewife", false, "simulate the full memory system (caches + directory + network)")
		stats   = flag.Bool("stats", false, "print execution statistics")
		interp  = flag.Bool("interp", false, "run the reference interpreter instead of the simulator")
		dis     = flag.Bool("S", false, "print the compiled assembly listing and exit")
		asm     = flag.Bool("asm", false, "treat the input as raw APRIL assembly instead of Mul-T")
		cycles  = flag.Uint64("max-cycles", 0, "simulation cycle budget (0 = default)")
		memMB   = flag.Int("mem", 0, "simulated physical memory in MiB (0 = default 256)")
		serve   = flag.String("serve", "", "serve live run introspection on this host:port (e.g. :8080; /progress, /counters, /metrics, /timeline, /trace); observation-only")

		faults    = flag.Bool("faults", false, "arm seeded timing perturbations (requires -alewife): hop jitter, transient link stalls, delayed directory replies; answers are unaffected, cycle counts shift")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for -faults")
		check     = flag.Bool("check", false, "enable runtime invariant checkers (coherence, full/empty, scheduler conservation, message-pool ownership)")
		autopsy   = flag.Bool("autopsy", false, "on a crashed run (deadlock, livelock, cycle budget, invariant violation), print the full machine snapshot")

		traceOut    = flag.String("trace", "", "write the event trace as Chrome trace-event JSON (open in Perfetto) to this path")
		timelineOut = flag.String("timeline", "", "write the per-node utilization timeline to this path (CSV, or JSON rows with a .json extension)")
		countersOut = flag.String("counters", "", "write the unified end-of-run counter snapshot as JSON to this path")
		sample      = flag.Uint64("sample", 0, "timeline sampling interval in cycles (0 = default 4096)")
		traceCap    = flag.Int("trace-cap", 0, "per-node event ring capacity; the ring keeps the most recent events (0 = default 16384)")

		ckptEvery = flag.Uint64("checkpoint-every", 0, "write a restorable machine image every N simulated cycles (atomic write-rename into -checkpoint-dir)")
		ckptDir   = flag.String("checkpoint-dir", "", "checkpoint directory (default: current directory)")
		ckptKeep  = flag.Int("checkpoint-keep", 0, "retain the last K checkpoint images (0 = default 8)")
		restore   = flag.String("restore", "", "resume from a checkpoint image instead of compiling a program; machine-defining flags are ignored (the image is self-contained), host-side flags still apply")
		bisect    = flag.String("bisect", "", "bisect the checkpoint directory for the first invariant-violating cycle and print its autopsy")
		sabotage  = flag.Uint64("sabotage", 0, "deliberately corrupt scheduler state at this cycle (deterministic invariant violation; checkpoint/bisect test hook)")
		statsJSON = flag.Bool("stats-json", false, "print the simulated run statistics as one JSON object (host-side perf excluded; stable across tiers and restores)")
	)
	var tier april.Tier
	flag.Var(&tier, "tier", "execution path: compiled | reference (the per-cycle loop and switch interpreter); results are bit-identical, only host speed changes")
	flag.Parse()

	if *bisect != "" {
		if flag.NArg() != 0 {
			fatal(fmt.Errorf("-bisect takes no program argument"))
		}
		res, err := april.Bisect(april.BisectOptions{Dir: *bisect, Log: os.Stderr})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("first violating cycle: %d\n", res.FirstBadCycle)
		fmt.Printf("clean through cycle:   %d\n", res.CleanCycle)
		fmt.Printf("replay from:           %s\n", res.Checkpoint)
		if res.Report != nil {
			fmt.Print(res.Report.Render())
		}
		return
	}

	var src string
	var err error
	if *restore != "" {
		if flag.NArg() != 0 {
			fatal(fmt.Errorf("-restore takes no program argument"))
		}
	} else {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: april [flags] program.mt   (use - for stdin)")
			flag.Usage()
			os.Exit(2)
		}
		src, err = readSource(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
	}

	if *interp {
		v, err := april.Interpret(src, os.Stdout)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("=> %s\n", v)
		return
	}

	opts := april.Options{
		Processors:  *nProcs,
		Machine:     april.MachineType(*machine),
		LazyFutures: *lazy,
		Sequential:  *seq,
		Output:      os.Stdout,
		MaxCycles:   *cycles,
		MemoryBytes: uint32(*memMB) << 20,
		Tier:        tier,

		CheckpointEvery: *ckptEvery,
		CheckpointDir:   *ckptDir,
		CheckpointKeep:  *ckptKeep,
		SabotageCycle:   *sabotage,
	}
	if *alewife {
		opts.Alewife = &april.AlewifeOptions{}
	}
	opts.Check = *check
	if *faults {
		fc := april.DefaultFaultOptions(*faultSeed)
		opts.Faults = &fc
	}
	if *serve != "" {
		opts.Serve = *serve
		opts.ServeNotify = func(url string) {
			fmt.Fprintf(os.Stderr, "april: observatory listening on %s\n", url)
		}
	}

	var traceFiles []*os.File
	if *traceOut != "" || *timelineOut != "" || *countersOut != "" {
		topts := &april.TraceOptions{SampleInterval: *sample, Capacity: *traceCap}
		open := func(path string) *os.File {
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			traceFiles = append(traceFiles, f)
			return f
		}
		if *traceOut != "" {
			topts.ChromeOut = open(*traceOut)
		}
		if *timelineOut != "" {
			topts.TimelineOut = open(*timelineOut)
			topts.TimelineJSON = strings.HasSuffix(*timelineOut, ".json")
		}
		if *countersOut != "" {
			topts.CountersOut = open(*countersOut)
		}
		opts.Trace = topts
	}

	if *dis {
		listing, err := april.Disassemble(src, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(listing)
		return
	}

	var res april.Result
	switch {
	case *restore != "":
		res, err = april.RestoreFile(*restore, opts)
	case *asm:
		res, err = april.RunAssembly(src, opts)
	default:
		res, err = april.Run(src, opts)
	}
	if err != nil {
		if *autopsy {
			if r, ok := april.Autopsy(err); ok {
				fmt.Fprint(os.Stderr, r.Render())
			}
		}
		fatal(err)
	}
	for _, f := range traceFiles {
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("=> %s\n", res.Value)
	if *statsJSON {
		payload, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", payload)
	}
	if *stats {
		fmt.Printf("cycles:            %d\n", res.Cycles)
		fmt.Printf("instructions:      %d\n", res.Instructions)
		fmt.Printf("utilization:       %.3f\n", res.Utilization)
		fmt.Printf("context switches:  %d\n", res.ContextSwitches)
		fmt.Printf("tasks created:     %d\n", res.TasksCreated)
		fmt.Printf("lazy steals:       %d\n", res.Steals)
		fmt.Printf("touches resolved:  %d (unresolved: %d)\n", res.TouchesResolved, res.TouchesUnresolved)
		if opts.Alewife != nil {
			fmt.Printf("cache-miss traps:  %d\n", res.CacheMissTraps)
		}
	}
}

func readSource(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "april:", err)
	os.Exit(1)
}
