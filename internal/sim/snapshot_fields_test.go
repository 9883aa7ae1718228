package sim

// The image's completeness check: every field of every type that holds
// machine state is classified, so a field added to any of them fails
// this test until someone decides whether the image carries it.

import (
	"reflect"
	"slices"
	"testing"

	"april/internal/cache"
	"april/internal/core"
	"april/internal/directory"
	"april/internal/mem"
	"april/internal/network"
	"april/internal/proc"
	"april/internal/rts"
	"april/internal/snapshot"
)

// imageRecords are the records the codec walks whole (snapshot.Put and
// snapshot.Get), by the name the classification uses.
var imageRecords = map[string]reflect.Type{
	"identity":        reflect.TypeFor[identity](),
	"rts.SchedImage":  reflect.TypeFor[rts.SchedImage](),
	"nodeImage":       reflect.TypeFor[nodeImage](),
	"network.Image":   reflect.TypeFor[network.Image](),
	"cache.Stats":     reflect.TypeFor[cache.Stats](),
	"directory.Stats": reflect.TypeFor[directory.Stats](),
	"ctlState":        reflect.TypeFor[ctlState](),
	"[]proc.Stats":    reflect.TypeFor[[]proc.Stats](), // the sampler's baselines
}

// imageSections are the image's hand-written parts.
var imageSections = []string{
	"program",      // isa.Encode words and the sorted symbol table
	"state header", // cycle and watchdog cursors
	"memory",       // resident pages
	"fabric",       // fabric cycle, network kind, controller count
	"cache lines",  // geometry, LRU clock, valid lines by slot
	"directory",    // entries by ascending block
	"cursors",      // trace ring and sampler cursors
}

// A field's class, exactly one of: inside a walked record (record,
// plus the record's field it is copied into when it is not the whole
// record), written by a hand-written section, or host bookkeeping
// rebuilt or reset on restore (host says why).
type imageClass struct{ record, field, section, host string }

func walk(rec string) imageClass      { return imageClass{record: rec} }
func in(rec, field string) imageClass { return imageClass{record: rec, field: field} }
func section(name string) imageClass  { return imageClass{section: name} }
func host(why string) imageClass      { return imageClass{host: why} }

var (
	wiring    = host("wiring between layers, made by New")
	scratch   = host("scratch or freelist, contents dead between uses")
	fromID    = host("derived from the identity section by New")
	traceHook = host("tracer wiring, attached by RestoreOverrides.Trace")
	faultPlan = host("fault plan, rebuilt from the identity by New")
	loadTier  = host("execution-tier state, installed by Load")
	telemetry = host("host telemetry, restarts at zero")
)

// imageFields classifies every field of the machine's state-holding
// types.
var imageFields = map[reflect.Type]map[string]imageClass{
	reflect.TypeFor[Machine](): {
		"Cfg":            walk("identity"), // Out, Tier and Check are RestoreOverrides
		"Mem":            section("memory"),
		"Layout":         fromID,
		"Sched":          walk("rts.SchedImage"),
		"Nodes":          walk("nodeImage"),
		"staticHeap":     host("compile-time heap cursor: images carry the compiled program"),
		"net":            section("fabric"),
		"now":            section("state header"),
		"loaded":         host("set by Load, which Restore runs"),
		"compileOn":      loadTier,
		"epochOn":        loadTier,
		"epochLog":       loadTier,
		"epochTel":       telemetry,
		"threshold":      host("test-only tier tuning"),
		"windowCap":      host("test-only tier tuning"),
		"running":        in("nodeImage", "Rem"), // busyRemaining's canonical form
		"wakeq":          in("nodeImage", "Rem"),
		"park":           in("nodeImage", "Rem"),
		"dueBuf":         scratch,
		"mergeBuf":       scratch,
		"keepBuf":        scratch,
		"tracer":         section("cursors"),
		"sampler":        section("cursors"),
		"lastSample":     section("cursors"),
		"plan":           faultPlan,
		"checker":        host("checkers follow RestoreOverrides.Check"),
		"deadlockWin":    fromID,
		"nextSchedCheck": section("state header"),
		"nextWedgeCheck": section("state header"),
		"lastProgress":   section("state header"),
		"wedgeArmed":     host("rederived from the image's cycle"),
		"sabotaged":      host("rederived from the image's cycle"),
		"ckptValid":      host("crash-report provenance of the host's checkpoint files"),
		"ckptCycle":      host("crash-report provenance of the host's checkpoint files"),
		"ckptBytes":      host("crash-report provenance of the host's checkpoint files"),
		"ckptCmd":        host("crash-report provenance of the host's checkpoint files"),
	},
	reflect.TypeFor[Node](): {
		"Proc":        walk("nodeImage"),
		"RT":          walk("nodeImage"),
		"busy":        in("nodeImage", "Rem"),
		"cache":       section("fabric"),
		"lastRetired": in("nodeImage", "LastRetired"),
	},
	reflect.TypeFor[netFabric](): {
		"cfg":       fromID,
		"net":       walk("network.Image"),
		"ctls":      section("fabric"),
		"dist":      fromID,
		"now":       section("fabric"),
		"trace":     traceHook,
		"dirtyCtl":  host("dirty set, rebuilt from ctlState.outbox and recallQ"),
		"dirty":     host("dirty set, rebuilt from ctlState.outbox and recallQ"),
		"cal":       host("outbox calendar, rebuilt from ctlState.outbox"),
		"idScratch": scratch,
		"pendBuf":   scratch,
		"delivBuf":  scratch,
		"plan":      faultPlan,
		"check":     host("checkers follow RestoreOverrides.Check"),
	},
	reflect.TypeFor[cacheCtl](): {
		"node":        wiring,
		"fabric":      wiring,
		"mem":         wiring,
		"blockShift":  fromID,
		"cache":       section("cache lines"),
		"dir":         section("directory"),
		"lockWindow":  fromID,
		"ctlState":    walk("ctlState"),
		"queuedFree":  scratch,
		"outSpare":    scratch,
		"keepQ":       scratch,
		"recallSpare": scratch,
		"targetsBuf":  scratch,
	},
	reflect.TypeFor[ioCtl](): {
		"m":       wiring,
		"node":    wiring,
		"ctl":     wiring,
		"ioState": in("nodeImage", "IO"),
	},
	reflect.TypeFor[proc.Processor](): {
		"ID":          wiring,
		"Engine":      walk("nodeImage"),
		"Prog":        section("program"),
		"Mem":         wiring,
		"IO":          wiring,
		"Handler":     wiring,
		"Halted":      in("nodeImage", "Halted"),
		"Stats":       in("nodeImage", "Stats"),
		"Trace":       traceHook,
		"pendingIPI":  in("nodeImage", "IPIs"),
		"ipiHead":     in("nodeImage", "IPIs"), // the undelivered part starts there
		"Kinds":       in("nodeImage", "Kinds"),
		"FusedOps":    telemetry,
		"InlineSteps": telemetry,
		"EpochOps":    telemetry,
		"IdlePolls":   telemetry,
		"blocks":      loadTier,
		"micro":       loadTier,
		"done":        loadTier,
		"perfMem":     loadTier,
		"fusedPort":   loadTier,
		"epoch":       host("epoch chunk log, nil between windows"),
	},
	reflect.TypeFor[core.Engine](): {
		"Frames":       in("nodeImage", "Frames"),
		"Globals":      in("nodeImage", "Globals"),
		"fp":           in("nodeImage", "FP"),
		"SwitchCycles": fromID,
		"OnSwitch":     traceHook,
		"Switches":     in("nodeImage", "Switches"),
	},
	reflect.TypeFor[rts.NodeRT](): {
		"Sched":   walk("rts.SchedImage"),
		"Prof":    fromID,
		"Node":    wiring,
		"Heap":    in("nodeImage", "Arena"),
		"IPIHook": wiring,
		"Trace":   traceHook,
		"Check":   host("checkers follow RestoreOverrides.Check"),
		"stuck":   in("nodeImage", "Stuck"),
	},
	reflect.TypeFor[rts.Scheduler](): {
		"Mem":         wiring,
		"Prof":        fromID,
		"Lazy":        fromID,
		"Out":         host("output writer, a RestoreOverrides field"),
		"TaskExitPC":  host("program symbols, resolved by Load"),
		"MainExitPC":  host("program symbols, resolved by Load"),
		"MainDone":    in("rts.SchedImage", "MainDone"),
		"MainResult":  in("rts.SchedImage", "MainResult"),
		"Stats":       in("rts.SchedImage", "Stats"),
		"Trace":       traceHook,
		"threads":     in("rts.SchedImage", "Threads"),
		"ready":       in("rts.SchedImage", "Ready"),
		"waiters":     in("rts.SchedImage", "Waiters"),
		"waiterPool":  scratch,
		"readyQueues": host("count of nonempty ready queues, rebuilt by RestoreState"),
		"stackAlloc":  in("rts.SchedImage", "StackNext"), // and StackLimit
		"freeStacks":  in("rts.SchedImage", "FreeStacks"),
		"freeTCBs":    in("rts.SchedImage", "FreeTCBs"),
		"heapAlloc":   in("rts.SchedImage", "HeapNext"), // and HeapLimit
		"stealRR":     in("rts.SchedImage", "StealRR"),
	},
	reflect.TypeFor[network.Torus](): {
		"geo":       fromID,
		"channels":  in("network.Image", "Queues"), // and Busy
		"inbox":     in("network.Image", "Inbox"),
		"now":       in("network.Image", "Now"),
		"stats":     in("network.Image", "Stats"),
		"trace":     traceHook,
		"cal":       host("channel calendar, rebuilt by RestoreImage"),
		"inFlight":  host("packet count, rebuilt by RestoreImage"),
		"pendNodes": host("undrained-inbox list, rebuilt by RestoreImage"),
		"inPend":    host("undrained-inbox flags, rebuilt by RestoreImage"),
		"moved":     scratch,
		"movedFrom": scratch,
		"pool":      scratch,
		"curBuf":    scratch,
		"dstBuf":    scratch,
		"plan":      faultPlan,
		"txSeq":     in("network.Image", "TxSeq"),
	},
	reflect.TypeFor[network.Ideal](): {
		"nodes":     fromID,
		"latency":   fromID,
		"now":       in("network.Image", "Now"),
		"inbox":     in("network.Image", "Inbox"),
		"pending":   in("network.Image", "Pending"),
		"head":      in("network.Image", "Pending"), // the live part starts there
		"stats":     in("network.Image", "Stats"),
		"trace":     traceHook,
		"pendNodes": host("undrained-inbox list, rebuilt by RestoreImage"),
		"inPend":    host("undrained-inbox flags, rebuilt by RestoreImage"),
		"pool":      scratch,
		"plan":      faultPlan,
		"jittered":  faultPlan,
		"sendSeq":   in("network.Image", "SendSeq"),
		"lastArr":   in("network.Image", "LastArr"),
	},
	reflect.TypeFor[cache.Cache](): {
		"cfg":    fromID,
		"chunks": section("cache lines"),
		"nsets":  fromID,
		"ways":   fromID,
		"mask":   fromID,
		"pow2":   fromID,
		"clock":  section("cache lines"),
		"valid":  host("valid-line count, rebuilt by SetSlot"),
		"Stats":  walk("cache.Stats"),
	},
	reflect.TypeFor[directory.Directory](): {
		"slots": section("directory"),
		"shift": host("hash-table layout, rebuilt by Entry"),
		"used":  host("hash-table load, rebuilt by Entry"),
		"Stats": walk("directory.Stats"),
	},
	reflect.TypeFor[mem.Memory](): {
		"groups":   section("memory"),
		"size":     section("memory"),
		"resident": host("resident-page count, rebuilt by InstallPage"),
	},
}

// TestSnapshotFieldsClassified: every field of the state-holding types
// has exactly one class, every class names a real record, record field
// or section, and every walked record's plan builds.
func TestSnapshotFieldsClassified(t *testing.T) {
	for name, rt := range imageRecords {
		func() {
			defer func() {
				if err := recover(); err != nil {
					t.Errorf("record %s: %v", name, err)
				}
			}()
			snapshot.Compile(rt)
		}()
	}
	for typ, classes := range imageFields {
		seen := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i).Name
			seen[f] = true
			c, ok := classes[f]
			if !ok {
				t.Errorf("%s.%s is not classified: walk it in a record, write it in a section, or name it host bookkeeping", typ, f)
				continue
			}
			if err := c.check(); err != "" {
				t.Errorf("%s.%s: %s", typ, f, err)
			}
		}
		for f := range classes {
			if !seen[f] {
				t.Errorf("%s has no field %s", typ, f)
			}
		}
	}
}

func (c imageClass) check() string {
	switch {
	case c.section != "" && !slices.Contains(imageSections, c.section):
		return "no section " + c.section
	case c.section != "" || c.host != "":
		return ""
	case c.record == "":
		return "no class, or host bookkeeping without a reason"
	}
	rt, ok := imageRecords[c.record]
	if !ok {
		return "walked record " + c.record + " is not registered"
	}
	if _, ok := rt.FieldByName(c.field); c.field != "" && !ok {
		return "record " + c.record + " has no field " + c.field
	}
	return ""
}
