// Command navserver serves an organization over HTTP: a JSON API plus a
// minimal HTML browser, the web analogue of the user-study prototype.
// The HTTP layer itself lives in internal/navhttp (so the fleet
// coordinator's tests can boot real in-process shards); this binary
// owns the flags, the listener lifecycle, and the background build.
//
//	navserver -lake lake.json [-org org.json] [-dims N] [-addr :8080]
//	          [-checkpoint search.ck] [-resume] [-max-inflight 64]
//	          [-pprof localhost:6060] [-cache-size 4096] [-max-batch 256]
//	          [-journal commits.journal] [-shard-id s0]
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
	"lakenav/internal/navhttp"
)

func main() {
	path := flag.String("lake", "", "lake path (json or bin)")
	orgPath := flag.String("org", "", "pre-built organization, json or bin (skips construction)")
	dims := flag.Int("dims", 1, "organization dimensions")
	addr := flag.String("addr", ":8080", "listen address")
	checkpoint := flag.String("checkpoint", "", "checkpoint the background build to this path (dimension i appends .dim<i>)")
	resume := flag.Bool("resume", false, "resume the background build from -checkpoint files when present")
	maxInflight := flag.Int("max-inflight", 64, "maximum concurrently served requests before shedding with 503")
	workers := flag.Int("workers", 0, "evaluator goroutine pool size for the background build; 0 uses all CPUs")
	restarts := flag.Int("restarts", 1, "independent searches per dimension in the background build, keeping the most effective")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this extra address (e.g. localhost:6060); empty disables")
	cacheSize := flag.Int("cache-size", 0, "query-result cache capacity in entries; 0 uses the default, negative disables caching")
	maxBatch := flag.Int("max-batch", 256, "maximum queries per /batch request")
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
		MaxBatch:    *maxBatch,
		ShardID:     *shardID,
	}
	if *journalPath != "" {
		// Allocated before the listener starts so request handlers never
		// observe history appearing mid-flight.
		opts.Generations = *generations
	}
	s := navhttp.New(lakenav.NewSearchEngine(l), opts)
	ingestCfg := lakenav.IngestConfig{Reoptimize: *reoptimize, Seed: 1, Workers: *workers}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// buildWG joins the background organization build on shutdown:
	// OrganizeContext honors ctx, so cancelling and waiting bounds exit
	// latency while guaranteeing the goroutine is gone before main
	// returns (no half-finished SetOrganization racing process exit).
	var buildWG sync.WaitGroup

	if *orgPath != "" {
		log.Printf("loading organization from %s…", *orgPath)
		org, err := lakenav.LoadOrganization(l, *orgPath)
		if err != nil {
			log.Fatal("navserver: ", err)
		}
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
		cfg.Workers = *workers
		cfg.Restarts = *restarts
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

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		log.Fatal("navserver: ", err)
	case <-ctx.Done():
	}
	stop()
	log.Print("shutting down: draining in-flight requests…")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("navserver: shutdown: %v", err)
		_ = srv.Close() // drain timed out; force-close, nothing left to report
	}
	// ctx is already cancelled (stop() above), so a still-running build
	// unwinds through OrganizeContext's cancellation path promptly.
	buildWG.Wait()
	log.Print("bye")
}
