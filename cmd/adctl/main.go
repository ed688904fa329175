// Command adctl is a command-line client for a running adserver.
//
// Usage:
//
//	adctl [-server http://localhost:8080] <command> [args]
//
// Commands:
//
//	add-user <handle>
//	follow <follower> <followee>
//	unfollow <follower> <followee>
//	check-in <user> <lat> <lng>
//	post <author> <text...>
//	add-campaign <name> <budget> <start RFC3339> <end RFC3339>
//	add-ad <id> <bid> [-campaign c] [-geo lat,lng,radiusKm] [-slots morning,afternoon] <text...>
//	remove-ad <id>
//	recommend <user> [k]
//	explain <user> [k]
//	traces [n]
//	trace <id>
//	impression <ad-id>
//	trending [slot] [k]
//	hot [dim] [k] [window]   (heavy-hitter telemetry; dim "" = all dimensions)
//	hot partition [window]   (per-dimension shard-skew summary)
//	stats
//	health
//	ready
//	invariants
//	metrics
//	slo [-refresh]
//	capture now
//	capture list
//	capture get <bundle> [file]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	caar "caar"
	"caar/client"
	"caar/obs/trace"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "adserver base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	c, err := client.New(*server)
	if err != nil {
		log.Fatalf("adctl: %v", err)
	}
	ctx := context.Background()
	now := time.Now()

	cmd, rest := args[0], args[1:]
	if err := run(ctx, c, cmd, rest, now); err != nil {
		log.Fatalf("adctl: %s: %v", cmd, err)
	}
}

func run(ctx context.Context, c *client.Client, cmd string, args []string, now time.Time) error {
	need := func(n int) error {
		if len(args) < n {
			return fmt.Errorf("need %d argument(s), got %d", n, len(args))
		}
		return nil
	}
	switch cmd {
	case "add-user":
		if err := need(1); err != nil {
			return err
		}
		return c.AddUser(ctx, args[0])
	case "follow":
		if err := need(2); err != nil {
			return err
		}
		return c.Follow(ctx, args[0], args[1])
	case "unfollow":
		if err := need(2); err != nil {
			return err
		}
		return c.Unfollow(ctx, args[0], args[1])
	case "check-in":
		if err := need(3); err != nil {
			return err
		}
		lat, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return fmt.Errorf("lat: %w", err)
		}
		lng, err := strconv.ParseFloat(args[2], 64)
		if err != nil {
			return fmt.Errorf("lng: %w", err)
		}
		return c.CheckIn(ctx, args[0], lat, lng, now)
	case "post":
		if err := need(2); err != nil {
			return err
		}
		return c.Post(ctx, args[0], strings.Join(args[1:], " "), now)
	case "add-campaign":
		if err := need(4); err != nil {
			return err
		}
		budget, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return fmt.Errorf("budget: %w", err)
		}
		start, err := time.Parse(time.RFC3339, args[2])
		if err != nil {
			return fmt.Errorf("start: %w", err)
		}
		end, err := time.Parse(time.RFC3339, args[3])
		if err != nil {
			return fmt.Errorf("end: %w", err)
		}
		return c.AddCampaign(ctx, args[0], budget, start, end)
	case "add-ad":
		return addAd(ctx, c, args)
	case "remove-ad":
		if err := need(1); err != nil {
			return err
		}
		return c.RemoveAd(ctx, args[0])
	case "recommend":
		if err := need(1); err != nil {
			return err
		}
		k := 5
		if len(args) > 1 {
			var err error
			if k, err = strconv.Atoi(args[1]); err != nil {
				return fmt.Errorf("k: %w", err)
			}
		}
		recs, err := c.Recommend(ctx, args[0], k, now)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			fmt.Println("(no eligible ads)")
			return nil
		}
		for i, r := range recs {
			fmt.Printf("%2d. %-24s score=%.4f text=%.4f geo=%.4f bid=%.4f\n",
				i+1, r.AdID, r.Score, r.Text, r.Geo, r.Bid)
		}
		return nil
	case "explain":
		if err := need(1); err != nil {
			return err
		}
		k := 5
		if len(args) > 1 {
			var err error
			if k, err = strconv.Atoi(args[1]); err != nil {
				return fmt.Errorf("k: %w", err)
			}
		}
		recs, tr, err := c.RecommendExplained(ctx, args[0], k, now)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			fmt.Println("(no eligible ads)")
		}
		for i, r := range recs {
			fmt.Printf("%2d. %-24s score=%.4f text=%.4f geo=%.4f bid=%.4f\n",
				i+1, r.AdID, r.Score, r.Text, r.Geo, r.Bid)
		}
		if tr != nil {
			fmt.Printf("\ntrace %s (%.3f ms, %s)\n", tr.ID, tr.DurationSeconds*1e3, tr.Outcome)
			printSpans(tr)
			for _, pa := range tr.Policy {
				fmt.Printf("policy  %-24s %s\n", pa.AdID, pa.Action)
			}
		}
		return nil
	case "traces":
		n := 20
		if len(args) > 0 {
			var err error
			if n, err = strconv.Atoi(args[0]); err != nil {
				return fmt.Errorf("n: %w", err)
			}
		}
		list, err := c.Traces(ctx, n)
		if err != nil {
			return err
		}
		if len(list.Traces) == 0 {
			fmt.Println("(no captured traces)")
			return nil
		}
		for _, s := range list.Traces {
			fmt.Printf("%-32s %-8s %-8s %8.3fms user=%s ads=%d\n",
				s.ID, s.Outcome, s.CaptureReason, s.DurationSeconds*1e3, s.User, s.Ads)
		}
		for stage, exs := range list.Exemplars {
			for _, ex := range exs {
				fmt.Printf("exemplar %-10s le=%-8s %8.3fms trace=%s\n",
					stage, ex.BucketLE, ex.Value*1e3, ex.TraceID)
			}
		}
		return nil
	case "trace":
		if err := need(1); err != nil {
			return err
		}
		tr, err := c.TraceByID(ctx, args[0])
		if err != nil {
			return err
		}
		fmt.Printf("trace %s  user=%s k=%d  %.3fms  %s (%s)\n",
			tr.ID, tr.User, tr.K, tr.DurationSeconds*1e3, tr.Outcome, tr.CaptureReason)
		fmt.Printf("algo    %s  shard=%d  lock_wait=%.3fms\n",
			tr.Algorithm, tr.Shard, tr.LockWaitSeconds*1e3)
		if tr.Error != "" {
			fmt.Printf("error   %s\n", tr.Error)
		}
		printSpans(tr)
		for _, a := range tr.Ads {
			fmt.Printf("ad      %-24s score=%.4f text=%.4f geo=%.4f bid=%.4f\n",
				a.AdID, a.Score, a.Text, a.Geo, a.Bid)
		}
		for _, pa := range tr.Policy {
			fmt.Printf("policy  %-24s %s\n", pa.AdID, pa.Action)
		}
		for k, v := range tr.Annotations {
			fmt.Printf("note    %s=%s\n", k, v)
		}
		return nil
	case "impression":
		if err := need(1); err != nil {
			return err
		}
		served, err := c.ServeImpression(ctx, args[0], now)
		if err != nil {
			return err
		}
		fmt.Printf("served=%v\n", served)
		return nil
	case "trending":
		slot := caar.Slot("")
		if len(args) > 0 {
			slot = caar.Slot(args[0])
		}
		k := 10
		if len(args) > 1 {
			var err error
			if k, err = strconv.Atoi(args[1]); err != nil {
				return fmt.Errorf("k: %w", err)
			}
		}
		terms, err := c.Trending(ctx, slot, k)
		if err != nil {
			return err
		}
		if len(terms) == 0 {
			fmt.Println("(no trending terms in this slot yet)")
			return nil
		}
		for i, tt := range terms {
			fmt.Printf("%2d. %-24s %d\n", i+1, tt.Term, tt.Count)
		}
		return nil
	case "hot":
		if len(args) > 0 && args[0] == "partition" {
			window := time.Duration(0)
			if len(args) > 1 {
				var err error
				if window, err = time.ParseDuration(args[1]); err != nil {
					return fmt.Errorf("window: %w", err)
				}
			}
			rep, err := c.HotPartitionReport(ctx, window)
			if err != nil {
				return err
			}
			fmt.Printf("window  %.0fs over %d shards\n", rep.WindowSeconds, rep.Shards)
			for _, d := range rep.Dimensions {
				fmt.Printf("%-10s top=%s count=%d (±%d) share=%.2f", d.Dimension, d.TopKey, d.TopCount, d.ErrorBound, d.TopShare)
				if d.ShardWeight != nil {
					fmt.Printf(" max-shard-share=%.2f shard-weight=%v", d.MaxShardShare, d.ShardWeight)
				}
				fmt.Println()
			}
			return nil
		}
		dim := ""
		if len(args) > 0 {
			dim = args[0]
		}
		k := 10
		if len(args) > 1 {
			var err error
			if k, err = strconv.Atoi(args[1]); err != nil {
				return fmt.Errorf("k: %w", err)
			}
		}
		window := time.Duration(0)
		if len(args) > 2 {
			var err error
			if window, err = time.ParseDuration(args[2]); err != nil {
				return fmt.Errorf("window: %w", err)
			}
		}
		dims, err := c.Hot(ctx, dim, k, window)
		if err != nil {
			return err
		}
		for _, d := range dims {
			fmt.Printf("%s (events=%d dropped=%d tracked=%d window=%.0fs)\n",
				d.Dimension, d.Events, d.Dropped, d.TrackedKeys, d.WindowSeconds)
			if len(d.Keys) == 0 {
				fmt.Println("  (no keys yet)")
				continue
			}
			for i, hk := range d.Keys {
				fmt.Printf("  %2d. %-24s %d (±%d)\n", i+1, hk.Key, hk.Count, hk.ErrorBound)
			}
		}
		return nil
	case "stats":
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("users            %d\n", st.Users)
		fmt.Printf("ads              %d\n", st.Ads)
		fmt.Printf("follow edges     %d\n", st.FollowEdges)
		fmt.Printf("posts delivered  %d\n", st.PostsDelivered)
		fmt.Printf("check-ins        %d\n", st.CheckIns)
		fmt.Printf("shards           %d\n", st.Shards)
		return nil
	case "health":
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("status     %s\n", h.Status)
		fmt.Printf("in flight  %d\n", h.InFlight)
		fmt.Printf("shed       %d\n", h.Shed)
		fmt.Printf("panics     %d\n", h.Panics)
		for _, p := range h.Problems {
			fmt.Printf("problem    %s\n", p)
		}
		return nil
	case "ready":
		ready, reasons, err := c.Ready(ctx)
		if err != nil {
			return err
		}
		if ready {
			fmt.Println("ready")
			return nil
		}
		fmt.Println("degraded")
		for _, r := range reasons {
			fmt.Printf("reason  %s\n", r)
		}
		os.Exit(1)
		return nil
	case "invariants":
		rep, err := c.Invariants(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("users             %d\n", rep.Users)
		fmt.Printf("follow edges      %d\n", rep.FollowEdges)
		fmt.Printf("ads               %d\n", len(rep.Ads))
		fmt.Printf("posts delivered   %d\n", rep.PostsDelivered)
		fmt.Printf("check-ins         %d\n", rep.CheckIns)
		fmt.Printf("vocab terms/docs  %d/%d\n", rep.VocabTerms, rep.VocabDocs)
		fmt.Printf("cached messages   %d (window capacity %d)\n", rep.CachedMessages, rep.WindowCapacity)
		fmt.Printf("candidate entries %d\n", rep.CandidateEntries)
		fmt.Printf("trace ring        %d/%d\n", rep.TraceCount, rep.TraceCapacity)
		fmt.Printf("heap alloc        %.1f MiB (%d goroutines)\n", float64(rep.HeapAllocBytes)/(1<<20), rep.Goroutines)
		for _, cs := range rep.Campaigns {
			fmt.Printf("campaign %-16s spent %.4f / budget %.4f\n", cs.Name, cs.Spent, cs.Budget)
		}
		return nil
	case "metrics":
		text, err := c.MetricsText(ctx)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	case "slo":
		refresh := len(args) > 0 && args[0] == "-refresh"
		st, err := c.SLOStatus(ctx, refresh)
		if err != nil {
			return err
		}
		fmt.Printf("burn threshold  %.1f  (windows %s / %s)\n",
			st.BurnThreshold, st.FastWindow, st.SlowWindow)
		for _, o := range st.Objectives {
			state := "ok"
			if o.Breaching {
				state = "BREACHING"
			}
			fmt.Printf("\n%-32s %s  target=%.4g  %s", o.Name, o.Kind, o.Target, state)
			if o.Trips > 0 {
				fmt.Printf("  trips=%d", o.Trips)
			}
			fmt.Println()
			if o.Kind == "latency" {
				fmt.Printf("  threshold %.4gs (effective %.4gs after bucket quantization)\n",
					o.ThresholdSeconds, o.EffectiveThresholdSeconds)
			}
			for _, w := range o.Windows {
				complete := ""
				if !w.Complete {
					complete = "  (partial window)"
				}
				fmt.Printf("  %-4s  burn=%-8.3g budget=%-8.3g good/total=%d/%d%s\n",
					w.Window, w.BurnRate, w.BudgetRemaining, w.Good, w.Total, complete)
			}
		}
		return nil
	case "capture":
		if err := need(1); err != nil {
			return err
		}
		switch args[0] {
		case "now":
			fmt.Println("capturing (blocks for the CPU-profile duration)...")
			name, err := c.CaptureNow(ctx)
			if err != nil {
				return err
			}
			fmt.Printf("bundle %s\n", name)
			return nil
		case "list":
			list, err := c.CaptureList(ctx)
			if err != nil {
				return err
			}
			if len(list) == 0 {
				fmt.Println("(no capture bundles)")
				return nil
			}
			for _, b := range list {
				var total int64
				for _, f := range b.Files {
					total += f.Bytes
				}
				fmt.Printf("%-40s trigger=%-10s files=%-2d %8.1f KiB  %s\n",
					b.Name, b.Trigger, len(b.Files), float64(total)/1024,
					b.CapturedAt.Format(time.RFC3339))
			}
			return nil
		case "get":
			if len(args) < 2 {
				return fmt.Errorf("usage: capture get <bundle> [file]")
			}
			if len(args) == 2 {
				m, err := c.CaptureMeta(ctx, args[1])
				if err != nil {
					return err
				}
				fmt.Printf("bundle      %s\n", m.Name)
				fmt.Printf("trigger     %s\n", m.Trigger)
				fmt.Printf("reason      %s\n", m.Reason)
				fmt.Printf("captured    %s  (uptime %.0fs)\n", m.CapturedAt.Format(time.RFC3339), m.UptimeSeconds)
				fmt.Printf("build       %s %s rev %s\n", m.Build.Module, m.Build.Version, m.Build.ShortRev())
				fmt.Printf("goroutines  %d (GOMAXPROCS %d)\n", m.Goroutines, m.GOMAXPROCS)
				for _, e := range m.Errors {
					fmt.Printf("error       %s\n", e)
				}
				return nil
			}
			b, err := c.CaptureFile(ctx, args[1], args[2])
			if err != nil {
				return err
			}
			// Raw bytes to stdout so `adctl capture get <b> cpu.pprof > cpu.pprof`
			// composes with `go tool pprof`.
			_, err = os.Stdout.Write(b)
			return err
		default:
			return fmt.Errorf("unknown capture subcommand %q (want now, list or get)", args[0])
		}
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printSpans renders a trace's stage spans as an attrition funnel.
func printSpans(tr *trace.Trace) {
	for _, sp := range tr.Spans {
		fmt.Printf("stage   %-10s %8.3fms  in=%-5d out=%d\n",
			sp.Stage, sp.DurationSeconds*1e3, sp.In, sp.Out)
	}
}

// addAd parses: <id> <bid> [-campaign c] [-geo lat,lng,radius] [-slots a,b] <text...>
func addAd(ctx context.Context, c *client.Client, args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("usage: add-ad <id> <bid> [options] <text...>")
	}
	ad := caar.Ad{ID: args[0]}
	bid, err := strconv.ParseFloat(args[1], 64)
	if err != nil {
		return fmt.Errorf("bid: %w", err)
	}
	ad.Bid = bid
	rest := args[2:]
	for len(rest) > 0 && strings.HasPrefix(rest[0], "-") {
		switch rest[0] {
		case "-campaign":
			if len(rest) < 2 {
				return fmt.Errorf("-campaign needs a value")
			}
			ad.Campaign = rest[1]
			rest = rest[2:]
		case "-geo":
			if len(rest) < 2 {
				return fmt.Errorf("-geo needs lat,lng,radiusKm")
			}
			parts := strings.Split(rest[1], ",")
			if len(parts) != 3 {
				return fmt.Errorf("-geo needs lat,lng,radiusKm")
			}
			var vals [3]float64
			for i, p := range parts {
				v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
				if err != nil {
					return fmt.Errorf("-geo component %d: %w", i, err)
				}
				vals[i] = v
			}
			ad.Target = &caar.Target{Lat: vals[0], Lng: vals[1], RadiusKm: vals[2]}
			rest = rest[2:]
		case "-slots":
			if len(rest) < 2 {
				return fmt.Errorf("-slots needs a value")
			}
			for _, s := range strings.Split(rest[1], ",") {
				ad.Slots = append(ad.Slots, caar.Slot(strings.TrimSpace(s)))
			}
			rest = rest[2:]
		default:
			return fmt.Errorf("unknown option %q", rest[0])
		}
	}
	if len(rest) == 0 {
		return fmt.Errorf("missing ad text")
	}
	ad.Text = strings.Join(rest, " ")
	return c.AddAd(ctx, ad)
}
