package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/shard"
)

// quiet swallows the lifecycle logging of the layers under test.
var quiet = log.New(io.Discard, "", 0)

// listener is one loopback HTTP server owned by the benchmark.
type listener struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h, ErrorLog: quiet},
		done: make(chan error, 1),
	}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for its accept loop to end.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		l.hs.Close()
	}
	<-l.done
}

// node is one durable serve.Server behind a loopback listener.
type node struct {
	durable *serve.Durable
	srv     *serve.Server
	ln      *listener
}

// bootNode is the warm-restart path a worker process runs: recover the
// state directory, build the server on what recovery arrived at, and
// start listening.
func bootNode(g *graph.Graph, dir string, cacheSize int, id *serve.ShardIdentity) (*node, error) {
	d, err := serve.OpenDurable(context.Background(), g, serve.DurableOptions{Dir: dir, Logger: quiet})
	if err != nil {
		return nil, err
	}
	srv := serve.New(d.Factor(), nil, g.N, serve.Options{
		CacheSize:         cacheSize,
		Logger:            quiet,
		Shard:             id,
		Durable:           d,
		InitialGeneration: d.BootGeneration(),
	})
	ln, err := listen(srv.Handler())
	if err != nil {
		d.Close()
		return nil, err
	}
	return &node{durable: d, srv: srv, ln: ln}, nil
}

// bootFromCheckpoint warm-boots a node in a new directory dir that
// holds nothing but a copy of the checkpoint at ckpt.
func bootFromCheckpoint(g *graph.Graph, ckpt, dir string, cacheSize int, id *serve.ShardIdentity) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := copyFile(ckpt, filepath.Join(dir, serve.CheckpointFile)); err != nil {
		return nil, err
	}
	return bootNode(g, dir, cacheSize, id)
}

func (n *node) close() {
	n.ln.close()
	n.durable.Close()
}

// system is the deployment one workload drives: a single durable
// server, or a coordinator over two durable workers, all in this
// process behind loopback listeners.
type system struct {
	url   string // what the client talks to
	nodes []*node
	coord *shard.Coordinator
	front *listener // the coordinator's listener (nil when unsharded)
	stop  context.CancelFunc
	probe chan struct{}
}

// deploy starts the workload's system in dir, warm-booting every node
// from a copy of the checkpoint at ckpt.
func deploy(w *workload, g *graph.Graph, ckpt, dir string) (*system, error) {
	s := &system{}
	workers := 1
	if w.sharded {
		workers = 2
	}
	var ws []shard.Worker
	for i := 0; i < workers; i++ {
		name := fmt.Sprintf("w%d", i+1)
		var id *serve.ShardIdentity
		if w.sharded {
			id = &serve.ShardIdentity{ID: name, Role: "worker"}
		}
		n, err := bootFromCheckpoint(g, ckpt, filepath.Join(dir, name), w.cacheSize, id)
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		ws = append(ws, shard.Worker{ID: name, URL: n.ln.url})
	}
	s.url = s.nodes[0].ln.url
	if !w.sharded {
		return s, nil
	}
	coord, err := shard.New(shard.Options{Workers: ws, StateDir: filepath.Join(dir, "coord"), Logger: quiet})
	if err != nil {
		s.close()
		return nil, err
	}
	s.coord = coord
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	s.probe = make(chan struct{})
	go func() {
		defer close(s.probe)
		coord.Run(ctx)
	}()
	if s.front, err = listen(coord.Handler()); err != nil {
		s.close()
		return nil, err
	}
	s.url = s.front.url
	return s, nil
}

// close stops the listeners and the coordinator's probe loop and waits
// for each to end.
func (s *system) close() {
	if s.front != nil {
		s.front.close()
	}
	if s.stop != nil {
		s.stop()
		<-s.probe
	}
	if s.coord != nil {
		s.coord.Close()
		// The coordinator forwards through http.DefaultTransport, which
		// can leave a dialed-but-never-used connection behind; a server's
		// Shutdown waits five seconds on those unless the client side
		// closes them first.
		http.DefaultClient.CloseIdleConnections()
	}
	for _, n := range s.nodes {
		n.close()
	}
}

// cacheStats sums the label-cache counters of the nodes' current
// engines.
func (s *system) cacheStats() core.CacheStats {
	var sum core.CacheStats
	for _, n := range s.nodes {
		st := n.srv.Cache().Stats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Size += st.Size
		sum.Cap += st.Cap
	}
	return sum
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Type().IsRegular() {
			if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
