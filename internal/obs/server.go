package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

// Server is the opt-in HTTP face of the telemetry plane:
//
//	/metrics       Prometheus text exposition of the registry
//	/healthz       liveness: 200 "ok" with uptime
//	/debug/tablez  live Backbone.Tables pub/sub tables of registered nodes
//	/debug/pprof/  the standard runtime profiles
//
// Nothing listens unless Start is called — the plane costs a process
// nothing until it is asked for.
type Server struct {
	reg   *Registry
	start time.Time

	mu       sync.Mutex
	nodes    []nodeSource
	onScrape func()
	ln       net.Listener
	srv      *http.Server
}

// NewServer wraps a registry; register table sources with AddNode, then
// Start it.
func NewServer(reg *Registry) *Server {
	return &Server{reg: reg, start: time.Now()}
}

// AddNode registers a backbone whose pub/sub tables /debug/tablez renders.
func (s *Server) AddNode(name string, bb Backbone) {
	s.mu.Lock()
	s.nodes = append(s.nodes, nodeSource{name: name, bb: bb})
	s.mu.Unlock()
}

// OnScrape installs a hook /metrics runs before rendering — the Plane
// wires the sampler's SampleOnce here, so a scrape always sees current
// state (per-channel tallies are dropped when a virtual channel tears
// down; a scrape that only read the background ticks could miss a
// short-lived channel entirely).
func (s *Server) OnScrape(fn func()) {
	s.mu.Lock()
	s.onScrape = fn
	s.mu.Unlock()
}

// Handler returns the plane's mux, for embedding into an existing server
// or an httptest fixture.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/tablez", s.handleTablez)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start binds addr (":0" picks a free port) and serves the plane in a
// background goroutine, returning the bound address. Close stops it.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.ln, s.srv = ln, srv
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener; in-flight requests are abandoned (this is a
// debug plane, not a service).
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	fn := s.onScrape
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok uptime=%s\n", time.Since(s.start).Round(time.Second))
}

// handleTablez renders every registered node's live pub/sub tables as
// aligned text columns — the instructor-station view of who publishes what
// to whom, and which channels are shedding.
func (s *Server) handleTablez(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	nodes := append([]nodeSource(nil), s.nodes...)
	s.mu.Unlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].name < nodes[j].name })

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(nodes) == 0 {
		fmt.Fprintln(w, "no nodes registered")
		return
	}
	for _, n := range nodes {
		pubs, subs := n.bb.Tables()
		fmt.Fprintf(w, "== node %s ==\n\npublications\n", n.name)
		// Flush errors are write errors: the client has gone.
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "LP\tCLASS\tCHANNELS\tSTALLS")
		for _, row := range pubs {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\n", row.LP, row.Class, row.Channels, row.Stalls)
		}
		_ = tw.Flush()
		fmt.Fprintf(w, "\nsubscriptions\n")
		fmt.Fprintln(tw, "LP\tCLASS\tPOLICY\tCHANNELS\tFRAMES\tDROPPED\tCONFLATED\tBY-CHANNEL")
		for _, row := range subs {
			var by []string
			for _, ch := range row.ByChannel {
				by = append(by, fmt.Sprintf("ch%d(%s):%d/%d/%d",
					ch.Channel, ch.Peer, ch.Delivered, ch.Dropped, ch.Conflated))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%s\n", row.LP, row.Class, row.Policy,
				row.Channels, row.Delivered, row.Dropped, row.Conflated, strings.Join(by, " "))
		}
		_ = tw.Flush()
		fmt.Fprintln(w)
	}
}
