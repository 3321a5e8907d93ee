// Command navserver serves an organization over HTTP: a JSON API plus a
// minimal HTML browser, the web analogue of the user-study prototype.
// The HTTP layer itself lives in internal/navhttp (so the fleet
// coordinator's tests can boot real in-process shards); this binary
// owns the flags, the listener lifecycle, and the background build.
//
//	navserver -lake lake.json [-org org.bin] [-dims N] [-addr :8080]
//	          [-checkpoint search.ck] [-resume] [-max-inflight 64]
//	          [-pprof localhost:6060] [-cache-size 4096]
//	          [-journal commits.journal] [-reoptimize] [-shard-id s0]
//
// The server is built to stay up: keyword search is served from the lake
// the moment the listener is open, while the organization — when not
// preloaded with -org — is constructed in the background and swapped in
// atomically once ready. Request handling is wrapped in panic recovery
// and a concurrency limit (503 on overload), the listener carries
// read/write/idle timeouts, and SIGINT/SIGTERM drain in-flight requests
// before exiting. A background build checkpoints to -checkpoint and a
// restart with -resume continues it rather than starting over.
//
// With -journal the server tails the commit journal `lakenav ingest`
// writes and serves one frozen generation per batch. Give -reoptimize
// to both or to neither: the reoptimization seed, iteration cap and
// exact evaluation are fixed in the ingest pipeline, so two processes
// that agree on the flag agree on every structure hash.
//
// As one shard of a fleet (see cmd/lakecoord), the server is started
// with -shard-id: /admin/shard then reports the shard's identity and
// serving generation to the coordinator's health checker, and the
// /metrics export is tagged with the shard id.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"lakenav"
	"lakenav/internal/httpx"
	"lakenav/internal/navhttp"
)

func main() {
	path := flag.String("lake", "", "lake path (json or bin)")
	orgPath := flag.String("org", "", "pre-built organization, a bin container from `lakenav organize -export` (skips construction)")
	dims := flag.Int("dims", 1, "organization dimensions")
	addr := flag.String("addr", ":8080", "listen address")
	checkpoint := flag.String("checkpoint", "", "checkpoint the background build to this path (dimension i appends .dim<i>)")
	resume := flag.Bool("resume", false, "resume the background build from -checkpoint files when present")
	maxInflight := flag.Int("max-inflight", 64, "maximum concurrently served requests before shedding with 503")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this extra address (e.g. localhost:6060); empty disables")
	cacheSize := flag.Int("cache-size", 0, "query-result cache capacity in entries; 0 uses the default, negative disables caching")
	journalPath := flag.String("journal", "", "tail this commit journal (written by `lakenav ingest`), serving a frozen generation per committed batch")
	poll := flag.Duration("poll", 2*time.Second, "journal poll interval (with -journal)")
	generations := flag.Int("generations", 5, "ingest generations retained for /admin/rollback (with -journal)")
	reoptimize := flag.Bool("reoptimize", false, "run a localized, deterministically seeded search after each ingested batch (with -journal)")
	shardID := flag.String("shard-id", "", "this server's shard id within a fleet (reported by /admin/shard and /metrics)")
	flag.Parse()
	if *path == "" {
		log.Fatal("navserver: missing -lake")
	}
	l, err := lakenav.LoadJSON(*path)
	if err != nil {
		log.Fatal("navserver: ", err)
	}
	opts := navhttp.Options{
		MaxInflight: *maxInflight,
		CacheSize:   *cacheSize,
		ShardID:     *shardID,
	}
	if *journalPath != "" {
		// Allocated before the listener starts so request handlers never
		// observe history appearing mid-flight.
		opts.Generations = *generations
	}
	ingestCfg := lakenav.IngestConfig{Reoptimize: *reoptimize}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// The first signal starts the drain; un-registering then lets a
	// second one kill the process outright.
	context.AfterFunc(ctx, stop)

	// A preloaded organization and the keyword index only read the
	// loaded lake, so the index is built on a second goroutine while the
	// organization loads; the handler is created once both are done.
	var search *lakenav.SearchEngine
	var org *lakenav.Organization
	if *orgPath != "" {
		log.Printf("loading organization from %s…", *orgPath)
		var indexWG sync.WaitGroup
		indexWG.Add(1)
		go func() {
			defer indexWG.Done()
			search = lakenav.NewSearchEngine(l)
		}()
		org, err = lakenav.LoadOrganization(l, *orgPath)
		indexWG.Wait()
		if err != nil {
			log.Fatal("navserver: ", err)
		}
	} else {
		search = lakenav.NewSearchEngine(l)
	}
	s := navhttp.New(search, opts)

	// buildWG joins the background organization build on shutdown:
	// OrganizeContext honors ctx, so cancelling and waiting bounds exit
	// latency while guaranteeing the goroutine is gone before main
	// returns (no half-finished SetOrganization racing process exit).
	var buildWG sync.WaitGroup

	if org != nil {
		if *journalPath != "" {
			// Serving switches to frozen generations: the working lake and
			// organization belong to the ingester from here on.
			if err := navhttp.StartIngest(ctx, s, l, org, *journalPath, *poll, ingestCfg); err != nil {
				log.Fatal("navserver: ingest: ", err)
			}
		} else {
			s.SetOrganization(org)
		}
	} else {
		cfg := lakenav.DefaultConfig()
		cfg.Dimensions = *dims
		cfg.CheckpointPath = *checkpoint
		cfg.Resume = *resume
		// Optimizer progress events drive the build.* gauges, so an
		// operator can watch a long build converge via /metrics.
		cfg.Progress = s.NoteBuildProgress
		s.SetBuildRunning(true)
		log.Printf("organizing %d tables in the background…", l.Tables())
		buildWG.Add(1)
		go func() {
			defer buildWG.Done()
			defer s.SetBuildRunning(false)
			org, err := lakenav.OrganizeContext(ctx, l, cfg)
			if err != nil {
				log.Printf("navserver: organize: %v (navigation unavailable; search still served)", err)
				return
			}
			if *journalPath != "" {
				if err := navhttp.StartIngest(ctx, s, l, org, *journalPath, *poll, ingestCfg); err != nil {
					log.Printf("navserver: ingest: %v (serving the freshly built organization only)", err)
					s.SetOrganization(org)
				}
			} else {
				s.SetOrganization(org)
			}
			if org.Truncated() {
				log.Printf("organization build interrupted; serving best-so-far (%d dimensions)", org.Dimensions())
				return
			}
			log.Printf("organization ready (%d dimensions)", org.Dimensions())
		}()
	}

	if *pprofAddr != "" {
		// The profiler gets its own listener: no public exposure, no
		// request timeouts, no load-shedding budget (see PprofMux).
		//
		//lakelint:ignore goroleak -- process-lifetime debug listener; it dies with the process and has nothing to hand back
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, navhttp.PprofMux()); err != nil {
				log.Printf("navserver: pprof: %v", err)
			}
		}()
	}

	if err := httpx.Serve(ctx, *addr, s.Handler()); err != nil {
		log.Fatal("navserver: ", err)
	}
	// ctx is already cancelled, so a still-running build unwinds through
	// OrganizeContext's cancellation path promptly.
	buildWG.Wait()
	log.Print("bye")
}
