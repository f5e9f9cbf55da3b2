// Command minequeryd serves a minequery engine over HTTP/JSON: session
// management, prepared statements with plan caching, a shared envelope
// cache, and admission control. See DESIGN.md §8 and the README
// quickstart for the API.
//
//	minequeryd -demo -addr 127.0.0.1:7654
//	curl -s -X POST localhost:7654/v1/execute -d '{"sql":"SELECT ..."}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"minequery"
	"minequery/internal/cluster"
	"minequery/internal/demo"
	"minequery/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7654", "listen address")
		workers   = flag.Int("workers", 0, "max concurrently executing queries (0: NumCPU)")
		queue     = flag.Int("queue", 32, "max queries queued waiting for a worker (-1: no queue)")
		timeout   = flag.Duration("timeout", 30*time.Second, "default per-query timeout")
		drain     = flag.Duration("drain", 10*time.Second, "max time to drain in-flight queries on shutdown")
		demoDB    = flag.Bool("demo", false, "seed a demo database (customers table + risk_tree/seg_bayes models)")
		demoRows  = flag.Int("demo-rows", 30000, "row count for -demo")
		brkThr    = flag.Int("breaker-threshold", 3, "consecutive index-path failures tripping a table's circuit breaker (-1: disable)")
		brkCool   = flag.Duration("breaker-cooldown", 5*time.Second, "how long a tripped breaker stays open before probing")
		walPath   = flag.String("wal", "", "write-ahead log file for the DML/CREATE MODEL write path (empty: volatile)")
		retrain   = flag.Int64("retrain-threshold", 0, "retrain a table's CREATE MODEL models after this many written rows (0: disable)")
		standingQ = flag.Int("standing-queue", 0, "standing-query notification queue capacity; overflow is dropped and counted (0: default 1024)")

		coord       = flag.Bool("coord", false, "run as a cluster coordinator over -shard-addrs instead of serving local data")
		shardAddrs  = flag.String("shard-addrs", "", "comma-separated shard base URLs (coordinator mode)")
		shardTable  = flag.String("shard-table", "customers", "sharded table name")
		shardColumn = flag.String("shard-column", "income", "shard key column")
		shardMode   = flag.String("shard-mode", "range", "row distribution: range or hash")
		shardBounds = flag.String("shard-bounds", "", "comma-separated ascending range split points (range mode; N shards need N-1)")
		demoShard   = flag.String("demo-shard", "", "seed this node as demo shard i/n (e.g. 0/3); rows are routed by the shard map, models trained on the full demo data")
		partial     = flag.Bool("allow-partial", false, "coordinator: answer with an explicitly degraded subset when a shard is down instead of failing")
	)
	flag.Parse()

	if *coord {
		serve(*addr, *drain, newCoordinator(*shardTable, *shardColumn, *shardMode, *shardBounds,
			parseAddrs(*shardAddrs), *demoRows, *timeout, *brkThr, *brkCool, *partial))
		return
	}

	eng := minequery.NewWithConfig(minequery.Config{StandingQueue: *standingQ})
	switch {
	case *demoShard != "":
		i, n, err := parseShardSlice(*demoShard)
		if err != nil {
			log.Fatalf("minequeryd: %v", err)
		}
		// The map only routes rows here; addresses are placeholders.
		dummy := make([]string, n)
		for j := range dummy {
			dummy[j] = fmt.Sprintf("http://shard-%d.invalid", j)
		}
		m, err := buildShardMap(*shardTable, *shardColumn, *shardMode, *shardBounds, dummy)
		if err != nil {
			log.Fatalf("minequeryd: shard map: %v", err)
		}
		if err := demo.SeedShard(eng, m, i, *demoRows); err != nil {
			log.Fatalf("minequeryd: seed demo shard: %v", err)
		}
		log.Printf("minequeryd: demo shard %d/%d ready (%s sharding on %s)", i, n, *shardMode, *shardColumn)
	case *demoDB:
		if err := demo.Seed(eng, *demoRows); err != nil {
			log.Fatalf("minequeryd: seed demo: %v", err)
		}
		log.Printf("minequeryd: demo database ready (%d rows, models risk_tree, seg_bayes)", *demoRows)
	}

	// WAL and retrain policy attach after demo seeding on purpose: the
	// bulk-loaded seed and the demo models (both refused once a log is
	// attached) are the recovery baseline, and the log holds only the
	// statement history on top. -retrain-threshold refreshes the demo
	// models too; replay requires the same -demo/-retrain-threshold
	// configuration across restarts.
	eng.SetRetrainPolicy(minequery.RetrainPolicy{WriteThreshold: *retrain})
	if *walPath != "" {
		dev, err := minequery.OpenWALFile(*walPath)
		if err != nil {
			log.Fatalf("minequeryd: open WAL %s: %v", *walPath, err)
		}
		n, err := eng.EnableWAL(dev)
		if err != nil {
			log.Fatalf("minequeryd: enable WAL: %v", err)
		}
		log.Printf("minequeryd: WAL %s attached (%d records replayed)", *walPath, n)
	}

	serve(*addr, *drain, server.New(eng, server.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		DefaultTimeout:   *timeout,
		BreakerThreshold: *brkThr,
		BreakerCooldown:  *brkCool,
	}))
}

// newCoordinator builds coordinator mode: a planning engine with the
// demo schema and models (no rows), a shard map over the fleet, and
// the coordinator HTTP surface.
func newCoordinator(table, column, mode, boundsCSV string, addrs []string,
	demoRows int, timeout time.Duration, brkThr int, brkCool time.Duration, partial bool) *server.CoordServer {
	if len(addrs) == 0 {
		log.Fatal("minequeryd: -coord needs -shard-addrs")
	}
	m, err := buildShardMap(table, column, mode, boundsCSV, addrs)
	if err != nil {
		log.Fatalf("minequeryd: shard map: %v", err)
	}
	planner, err := demo.Planner(demoRows)
	if err != nil {
		log.Fatalf("minequeryd: coordinator planner: %v", err)
	}
	co := cluster.New(planner, m, cluster.Config{
		ShardTimeout:     timeout,
		BreakerThreshold: brkThr,
		BreakerCooldown:  brkCool,
		AllowPartial:     partial,
	})
	sctx, scancel := context.WithTimeout(context.Background(), timeout)
	if err := co.Sync(sctx); err != nil {
		log.Printf("minequeryd: initial shard sync: %v (will retry lazily)", err)
	}
	scancel()
	log.Printf("minequeryd: coordinator over %d shards (%s on %s)", m.NumShards(), mode, column)
	return server.NewCoord(co, timeout)
}

// serve listens on addr until SIGINT or SIGTERM, then stops admitting
// work and drains what is in flight for up to drain. It returns once the
// drain and the listener's shutdown have, since ListenAndServe returns
// as soon as that shutdown begins.
func serve(addr string, drain time.Duration, srv interface {
	Handler() http.Handler
	Shutdown(context.Context) error
}) {
	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		log.Printf("minequeryd: shutting down, draining for up to %s", drain)
		dctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			log.Printf("minequeryd: drain: %v", err)
		}
		_ = httpSrv.Shutdown(dctx)
	}()

	log.Printf("minequeryd: listening on %s", addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("minequeryd: %v", err)
	}
	<-drained
	log.Printf("minequeryd: stopped")
}
