// Detection server (§4.4.2, §5.3): a long-running service that detects
// objects in images submitted by remote users. Servers prioritize
// availability, so FreePart's restart supervisor revives crashed agents
// and the service keeps answering.
//
// The default run has two acts. First the availability story: three honest
// users and one malicious one (a DoS exploit in the loading path).
// Unprotected, the service dies at the malicious request and later users get
// nothing; under FreePart the bad request fails alone. Second the serving
// mode: a session-sharded pool of -concurrency protected shards answers a
// -requests stream, reported as the serving experiment's row at that shard
// count (virtual-time throughput and latency percentiles). -kill-shard <id>
// stages the failover drill in its place: the named shard dies halfway
// through its baseline serving window, its sessions migrate to a
// replacement through the portable checkpoint store, and the rows show the
// drains, the migrations and the p99 the failover added.
//
// Each other mode flag runs one drill instead, at the flag values. Every act
// is the same code as the matching `experiments -exp <name>` table, printed
// with the same renderer:
//
//	-slow-shard <id>@<factor>  gray: one shard alive but factor-times slow,
//	                           unmitigated, drain only, and hedge + drain
//	-autoscale                 autoscale: the tracking load ramp on fixed
//	                           pools and under the control plane (2..N shards)
//	-overload <factor>         overload: two tenants offered factor× the pool's
//	                           capacity, FIFO versus weighted fair admission
//	-isolation <policy>        isolation: the 18-CVE replay and serving
//	                           overhead, the named policy's row
//	-defense                   defense: the adaptive campaign against the
//	                           static presets, with the controller's decision log
//	-partitions <n> -zipf <s>  partition: a Zipf visit stream over n range
//	                           partitions, the placement frontier and the
//	                           hot-range melt with and without the rebalance
//
//	go run ./examples/server
//	go run ./examples/server -concurrency 4 -requests 64
//	go run ./examples/server -concurrency 4 -requests 64 -kill-shard 2
//	go run ./examples/server -concurrency 4 -requests 64 -slow-shard 2@10
//	go run ./examples/server -autoscale -concurrency 8
//	go run ./examples/server -overload 4 -concurrency 4
//	go run ./examples/server -isolation tiered -concurrency 4
//	go run ./examples/server -defense -concurrency 4
//	go run ./examples/server -partitions 4 -zipf 1.2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"freepart.dev/freepart/internal/analysis"
	"freepart.dev/freepart/internal/attack"
	"freepart.dev/freepart/internal/core"
	"freepart.dev/freepart/internal/framework"
	"freepart.dev/freepart/internal/framework/all"
	"freepart.dev/freepart/internal/framework/simcv"
	"freepart.dev/freepart/internal/isolation"
	"freepart.dev/freepart/internal/kernel"
	"freepart.dev/freepart/internal/report"
	"freepart.dev/freepart/internal/workload"
)

func main() {
	o, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	a, standalone := o.act()
	if !standalone {
		fmt.Println("=== unprotected server ===")
		serve(false)
		fmt.Println()
		fmt.Println("=== FreePart server ===")
		serve(true)
		fmt.Println()
	}
	fmt.Printf("=== FreePart %s ===\n", a.banner)
	tables, err := a.run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tables)
}

// options is a parsed and validated command line.
type options struct {
	concurrency, requests int
	killShard             int // -1: no failover drill
	slowShard             int // -1: no gray drill
	slowFactor            float64
	autoscale, defense    bool
	overload              int
	isolation             string
	partitions            int
	zipf                  float64
}

// parseArgs parses args with fs and validates every value, so bad flags
// fail before any act runs.
func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	o := options{killShard: -1, slowShard: -1}
	fs.IntVar(&o.concurrency, "concurrency", 4, "runtime shards in the serving pool (the ceiling with -autoscale)")
	fs.IntVar(&o.requests, "requests", 32, "requests in the serving-mode stream")
	killSpec := fs.String("kill-shard", "", "failover drill: kill shard <id> halfway through its baseline serving window, e.g. 2")
	slowSpec := fs.String("slow-shard", "", "gray drill: serve with shard <id> alive but <factor>x slow, e.g. 2@10; suspicion scoring and hedging mitigate")
	fs.BoolVar(&o.autoscale, "autoscale", false, "autoscaling drill: serve the tracking load ramp with the control plane scaling 2..concurrency shards")
	fs.IntVar(&o.overload, "overload", 0, "overload drill: offer the two-tenant tracking load at this multiple of pool capacity (0 = off)")
	fs.StringVar(&o.isolation, "isolation", "", "isolation drill: serve under this tier policy (paper|tiered|erim|none; empty = off)")
	fs.BoolVar(&o.defense, "defense", false, "adaptive-defense drill: start at the erim floor, escalate/quarantine on attack sightings, anneal back")
	fs.IntVar(&o.partitions, "partitions", 0, "partition drill: serve a Zipf-keyed stream over this many range partitions and rebalance the hot one mid-window (0 = off)")
	fs.Float64Var(&o.zipf, "zipf", 1.1, "Zipf skew of the -partitions user population (must exceed 1)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.concurrency < 1:
		return o, fmt.Errorf("-concurrency %d: the serving pool needs at least 1 shard", o.concurrency)
	case o.requests < 0:
		return o, fmt.Errorf("-requests %d: the request stream cannot have a negative length", o.requests)
	case o.overload < 0:
		return o, fmt.Errorf("-overload %d: the load factor is a multiple of capacity; want 0 (off) or a positive factor like 4", o.overload)
	case o.partitions < 0:
		return o, fmt.Errorf("-partitions %d: want 0 (off) or a positive partition count", o.partitions)
	case o.partitions > 0 && o.zipf <= 1:
		return o, fmt.Errorf("-zipf %g: the Zipf skew must exceed 1", o.zipf)
	}
	if o.isolation != "" {
		if _, ok := isolation.ByName(o.isolation); !ok {
			return o, fmt.Errorf("-isolation %q: unknown policy; want one of %s", o.isolation, strings.Join(isolation.Names(), "|"))
		}
	}
	var err error
	if *killSpec != "" {
		if o.killShard, err = parseKillSpec(*killSpec, o.concurrency); err != nil {
			return o, fmt.Errorf("-kill-shard: %w", err)
		}
	}
	if *slowSpec != "" {
		if o.slowShard, o.slowFactor, err = parseSlowSpec(*slowSpec, o.concurrency); err != nil {
			return o, fmt.Errorf("-slow-shard: %w", err)
		}
	}
	return o, nil
}

// parseKillSpec reads a -kill-shard value: the id of the shard to kill. The
// drill derives the kill time (halfway through the victim's baseline
// window), so the older "<id>@<duration>" form is rejected.
func parseKillSpec(spec string, shards int) (int, error) {
	if idPart, _, ok := strings.Cut(spec, "@"); ok {
		return 0, fmt.Errorf("%q: the drill derives the kill time; pass the shard id alone, e.g. -kill-shard %s", spec, idPart)
	}
	return parseShardID(spec, shards)
}

// parseSlowSpec splits a -slow-shard value of the form "<id>@<factor>",
// e.g. "2@10": shard 2 stays alive but serves every call ten times slow.
func parseSlowSpec(spec string, shards int) (int, float64, error) {
	idPart, facPart, ok := strings.Cut(spec, "@")
	if !ok {
		return 0, 0, fmt.Errorf("want <id>@<factor>, e.g. 2@10; got %q", spec)
	}
	id, err := parseShardID(idPart, shards)
	if err != nil {
		return 0, 0, err
	}
	factor, err := strconv.ParseFloat(facPart, 64)
	if err != nil || factor <= 1 {
		return 0, 0, fmt.Errorf("bad slowdown %q: want a factor above 1 like 10", facPart)
	}
	return id, factor, nil
}

// parseShardID reads a shard id that must name a slot of a shards-wide pool.
func parseShardID(s string, shards int) (int, error) {
	id, err := strconv.Atoi(s)
	if err != nil || id < 0 || id >= shards {
		return 0, fmt.Errorf("shard id %q out of range [0,%d)", s, shards)
	}
	return id, nil
}

// act is the drill the flags select: its banner, and a run that measures it
// through internal/report and renders the rows the way cmd/experiments does.
type act struct {
	banner string
	run    func() (report.Tables, error)
}

// act picks the drill, first match wins in the order below. standalone is
// false for the serving and failover drills, which follow the availability
// act.
func (o options) act() (a act, standalone bool) {
	n, reqs := o.concurrency, o.requests
	switch {
	case o.partitions > 0:
		shards := n + n%2 // the two-socket topology needs pairs
		visits := max(20*reqs, 400)
		return act{fmt.Sprintf("partition mode (%d shards, %d partitions, zipf %.2f)", shards, o.partitions, o.zipf), func() (report.Tables, error) {
			rows, err := report.MeasurePartition(shards, o.partitions, visits, visits, o.zipf)
			if err != nil {
				return nil, err
			}
			return report.RenderPartition(rows), nil
		}}, true
	case o.defense:
		return act{fmt.Sprintf("adaptive defense mode (%d shards)", n), func() (report.Tables, error) {
			rows, err := report.MeasureDefense(n, reqs)
			if err != nil {
				return nil, err
			}
			return report.RenderDefense(rows), nil
		}}, true
	case o.isolation != "":
		return act{fmt.Sprintf("isolation mode (%s policy, %d shards)", o.isolation, n), func() (report.Tables, error) {
			rows, err := report.MeasureIsolation(n, reqs)
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				if r.Policy == o.isolation {
					return report.RenderIsolation(n, reqs, []report.IsolationResult{r}), nil
				}
			}
			return nil, fmt.Errorf("isolation drill has no %q row", o.isolation)
		}}, true
	case o.overload > 0:
		heavy, light := 4*n, n
		return act{fmt.Sprintf("overload mode (%d shards, %dx capacity)", n, o.overload), func() (report.Tables, error) {
			rows, err := report.MeasureOverload(n, heavy, light, 64, []int{o.overload})
			if err != nil {
				return nil, err
			}
			return report.RenderOverload(n, heavy, light, rows), nil
		}}, true
	case o.slowShard >= 0:
		return act{fmt.Sprintf("gray-failure mode (%d shards, shard %d at %gx)", n, o.slowShard, o.slowFactor), func() (report.Tables, error) {
			rows, err := report.MeasureGray(n, reqs, o.slowShard, o.slowFactor)
			if err != nil {
				return nil, err
			}
			return report.RenderGray(rows), nil
		}}, true
	case o.autoscale:
		ceiling := max(n, 3)
		return act{fmt.Sprintf("autoscaling mode (2..%d shards)", ceiling), func() (report.Tables, error) {
			rows, err := report.MeasureAutoscale(2, ceiling, 4, 10, 128)
			if err != nil {
				return nil, err
			}
			return report.RenderAutoscale(rows), nil
		}}, true
	case o.killShard >= 0:
		return act{fmt.Sprintf("failover mode (%d shards, kill shard %d)", n, o.killShard), func() (report.Tables, error) {
			rows, err := report.MeasureFailover(n, reqs, o.killShard)
			if err != nil {
				return nil, err
			}
			return report.RenderFailover(rows), nil
		}}, false
	default:
		return act{fmt.Sprintf("serving mode (%d shards)", n), func() (report.Tables, error) {
			rows, err := report.MeasureServing([]int{n}, reqs)
			if err != nil {
				return nil, err
			}
			return report.RenderServing(rows), nil
		}}, false
	}
}

// request is one user's submission.
type request struct {
	user int
	body []byte
}

func serve(protected bool) {
	k := kernel.New()
	reg := all.Registry()
	var ex core.Caller
	var rt *core.Runtime
	if protected {
		cat := analysis.New(reg, nil).Categorize()
		var err error
		rt, err = core.New(k, reg, cat, core.Default())
		if err != nil {
			log.Fatal(err)
		}
		defer rt.Close()
		ex = rt
	} else {
		ex = core.NewDirect(k, reg)
	}
	alog := &attack.Log{}
	if rt != nil {
		rt.OnExploit = alog.Handler()
	} else {
		ex.(*core.Direct).Ctx.OnExploit = alog.Handler()
	}

	// The detection model.
	k.FS.WriteFile("/srv/model.xml", simcv.EncodeClassifier(150, 4))
	model, _, err := ex.Call("cv.CascadeClassifier", framework.Str("/srv/model.xml"))
	if err != nil {
		log.Fatal(err)
	}

	// Incoming requests: users 1, 3, 4 honest; user 2 malicious.
	gen := workload.New(11)
	reqs := []request{
		{1, gen.EncodedImage(16, 16, 1)},
		{2, attack.DoS("CVE-2017-14136")},
		{3, gen.EncodedImage(16, 16, 1)},
		{4, gen.EncodedImage(16, 16, 1)},
	}

	served := 0
	for i, rq := range reqs {
		path := fmt.Sprintf("/srv/req-%d.img", i)
		k.FS.WriteFile(path, rq.body)
		img, _, err := ex.Call("cv.imread", framework.Str(path))
		if err != nil {
			fmt.Printf("user %d: request failed (%s)\n", rq.user, short(err))
			if rt != nil {
				// The availability-first policy (§4.4.2): restart and go on.
				if rerr := rt.RestartDead(); rerr != nil {
					log.Fatal(rerr)
				}
			}
			continue
		}
		_, plain, err := ex.Call("cv.CascadeClassifier.detectMultiScale", model[0].Value(), img[0].Value())
		if err != nil {
			fmt.Printf("user %d: detection failed (%s)\n", rq.user, short(err))
			continue
		}
		fmt.Printf("user %d: %d objects detected\n", rq.user, plain[0].Int)
		served++
	}
	fmt.Printf("served %d/%d users\n", served, len(reqs))
	alive := true
	if rt != nil {
		alive = rt.Host.Alive()
	} else {
		alive = ex.(*core.Direct).Proc.Alive()
	}
	fmt.Printf("service process alive: %v\n", alive)
}

func short(err error) string {
	s := err.Error()
	if len(s) > 48 {
		s = s[:48] + "..."
	}
	return s
}
