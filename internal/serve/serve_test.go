package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

func testFactor(t *testing.T) (*core.Factor, *core.Result, int, bool) {
	t.Helper()
	g := gen.RoadNetwork(10, 10, 0.3, 7)
	plan, err := core.NewPlan(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.NewFactor(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f, nil, g.N, false
}

func testServerOpts(t *testing.T, withRoutes bool, opts Options) (*Server, *httptest.Server, int) {
	t.Helper()
	g := gen.RoadNetwork(10, 10, 0.3, 7)
	plan, err := core.NewPlan(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.NewFactor(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	var res *core.Result
	if withRoutes {
		o := core.DefaultOptions()
		o.TrackPaths = true
		plan2, err := core.NewPlan(g, o)
		if err != nil {
			t.Fatal(err)
		}
		res, err = plan2.Solve()
		if err != nil {
			t.Fatal(err)
		}
	}
	s := New(f, res, g.N, opts)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv, g.N
}

func testServer(t *testing.T, withRoutes bool) (*httptest.Server, int) {
	_, srv, n := testServerOpts(t, withRoutes, Options{})
	return srv, n
}

func getJSON(t *testing.T, url string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("%s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func postJSON(t *testing.T, url string, body any, wantCode int) map[string]any {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s: status %d, want %d (body %s)", url, resp.StatusCode, wantCode, raw)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHealth(t *testing.T) {
	srv, n := testServer(t, false)
	out := getJSON(t, srv.URL+"/health", http.StatusOK)
	if out["status"] != "ok" || int(out["vertices"].(float64)) != n {
		t.Fatalf("health payload wrong: %v", out)
	}
	if out["routes"] != false {
		t.Fatal("routes should be off")
	}
}

func TestDist(t *testing.T) {
	srv, _ := testServer(t, false)
	out := getJSON(t, srv.URL+"/dist?u=0&v=42", http.StatusOK)
	if out["reachable"] != true {
		t.Fatalf("expected reachable pair: %v", out)
	}
	d := out["dist"].(float64)
	if d <= 0 || math.IsInf(d, 0) {
		t.Fatalf("distance %v out of range", d)
	}
	// Self distance.
	out = getJSON(t, srv.URL+"/dist?u=5&v=5", http.StatusOK)
	if out["dist"].(float64) != 0 {
		t.Fatal("self distance should be 0")
	}
	// Repeats of the same pair must be served from the label cache.
	getJSON(t, srv.URL+"/dist?u=0&v=42", http.StatusOK)
}

func TestDistErrors(t *testing.T) {
	srv, n := testServer(t, false)
	getJSON(t, srv.URL+"/dist?u=0", http.StatusBadRequest)
	getJSON(t, srv.URL+"/dist?u=abc&v=1", http.StatusBadRequest)
	getJSON(t, srv.URL+"/dist?u=0&v=-1", http.StatusBadRequest)
	getJSON(t, srv.URL+"/dist?u=0&v="+strconv.Itoa(n), http.StatusBadRequest)
}

func TestDistBatch(t *testing.T) {
	s, srv, n := testServerOpts(t, false, Options{})
	pairs := [][2]int{{0, 42}, {5, 5}, {1, n - 1}, {0, 42}}
	out := postJSON(t, srv.URL+"/dist/batch", map[string]any{"pairs": pairs}, http.StatusOK)
	dists := out["dists"].([]any)
	reach := out["reachable"].([]any)
	if int(out["count"].(float64)) != len(pairs) || len(dists) != len(pairs) || len(reach) != len(pairs) {
		t.Fatalf("batch shape wrong: %v", out)
	}
	if dists[1].(float64) != 0 || reach[1] != true {
		t.Fatalf("self pair wrong: %v %v", dists[1], reach[1])
	}
	// Batch answers must match the point endpoint.
	single := getJSON(t, srv.URL+"/dist?u=0&v=42", http.StatusOK)
	if dists[0].(float64) != single["dist"].(float64) {
		t.Fatalf("batch %v != point %v", dists[0], single["dist"])
	}
	// The duplicated pair and the point query share cached labels.
	if st := s.Cache().Stats(); st.Hits == 0 {
		t.Fatalf("batch should hit the label cache: %+v", st)
	}
}

// TestDistBatchLooksUpEachPairOnce pins the batch's label traffic: p
// pairs cost exactly 2p cache lookups (one per endpoint), however the
// response is laid out.
func TestDistBatchLooksUpEachPairOnce(t *testing.T) {
	s, srv, n := testServerOpts(t, false, Options{})
	pairs := [][2]int{{0, 42}, {5, 5}, {1, n - 1}, {0, 42}, {7, 3}}
	before := s.Cache().Stats()
	postJSON(t, srv.URL+"/dist/batch", map[string]any{"pairs": pairs}, http.StatusOK)
	after := s.Cache().Stats()
	if got, want := (after.Hits+after.Misses)-(before.Hits+before.Misses), uint64(2*len(pairs)); got != want {
		t.Fatalf("batch of %d pairs made %d label lookups, want %d", len(pairs), got, want)
	}
}

func TestDistBatchErrors(t *testing.T) {
	_, srv, n := testServerOpts(t, false, Options{})
	postJSON(t, srv.URL+"/dist/batch", map[string]any{"pairs": [][2]int{}}, http.StatusBadRequest)
	postJSON(t, srv.URL+"/dist/batch", map[string]any{"pairs": [][2]int{{0, n}}}, http.StatusBadRequest)
	postJSON(t, srv.URL+"/dist/batch", map[string]any{"pairs": [][2]int{{-1, 0}}}, http.StatusBadRequest)
	resp, err := http.Post(srv.URL+"/dist/batch", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
}

func TestSSSP(t *testing.T) {
	srv, n := testServer(t, false)
	out := getJSON(t, srv.URL+"/sssp?src=3", http.StatusOK)
	dist := out["dist"].([]any)
	if len(dist) != n {
		t.Fatalf("row length %d, want %d", len(dist), n)
	}
	if int(out["n"].(float64)) != n {
		t.Fatalf("n field %v, want %d", out["n"], n)
	}
	if dist[3].(float64) != 0 {
		t.Fatal("self entry should be 0")
	}
}

// TestSSSPStreamsInf checks the streamed encoding end to end on a graph
// with unreachable vertices: +Inf must arrive as the string "inf", and
// the payload must stay valid JSON (the seed's []any boxing is gone, so
// this exercises the hand-rolled encoder).
func TestSSSPStreamsInf(t *testing.T) {
	g := gen.RoadNetwork(6, 6, 0.3, 11)
	// Add an isolated vertex by building a plan over a bigger vertex set.
	plan, err := core.NewPlan(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.NewFactor(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	row := f.SSSP(0)
	hasInf := false
	for _, d := range row {
		if math.IsInf(d, 1) {
			hasInf = true
		}
	}
	s := New(f, nil, g.N, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	out := getJSON(t, srv.URL+"/sssp?src=0", http.StatusOK)
	dist := out["dist"].([]any)
	for i, d := range dist {
		switch v := d.(type) {
		case float64:
			if math.Abs(v-row[i]) > 1e-9 {
				t.Fatalf("dist[%d] = %v, want %g", i, v, row[i])
			}
		case string:
			if v != "inf" || !math.IsInf(row[i], 1) {
				t.Fatalf("dist[%d] = %q, want %g", i, v, row[i])
			}
		default:
			t.Fatalf("dist[%d] has type %T", i, d)
		}
	}
	if hasInf {
		// At least one "inf" string made it through the stream intact.
		found := false
		for _, d := range dist {
			if d == "inf" {
				found = true
			}
		}
		if !found {
			t.Fatal("expected streamed \"inf\" entries")
		}
	}
}

func TestJSONFloatNaN(t *testing.T) {
	if jsonFloat(math.NaN()) != "nan" {
		t.Fatal("NaN must map to the string \"nan\", not break the encoder")
	}
	if jsonFloat(math.Inf(1)) != "inf" || jsonFloat(math.Inf(-1)) != "-inf" {
		t.Fatal("infinities must map to strings")
	}
	if jsonFloat(1.5) != 1.5 {
		t.Fatal("finite values pass through")
	}
}

func TestWriteJSONLogsEncodeFailure(t *testing.T) {
	var buf bytes.Buffer
	s, _, _ := testServerOpts(t, false, Options{Logger: log.New(&buf, "", 0)})
	rec := httptest.NewRecorder()
	// A channel is not JSON-encodable, so Encode fails after the header
	// is committed; the failure must be logged, not swallowed.
	s.writeJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if !strings.Contains(buf.String(), "encode failed") {
		t.Fatalf("encode failure not logged: %q", buf.String())
	}
}

func TestRoute(t *testing.T) {
	srv, _ := testServer(t, true)
	out := getJSON(t, srv.URL+"/route?u=0&v=77", http.StatusOK)
	if out["reachable"] != true {
		t.Fatalf("expected route: %v", out)
	}
	path := out["path"].([]any)
	if int(path[0].(float64)) != 0 || int(path[len(path)-1].(float64)) != 77 {
		t.Fatalf("route endpoints wrong: %v", path)
	}
}

func TestRouteWithoutSupport(t *testing.T) {
	srv, _ := testServer(t, false)
	getJSON(t, srv.URL+"/route?u=0&v=1", http.StatusNotImplemented)
}

func TestMetricsEndpoint(t *testing.T) {
	s, srv, _ := testServerOpts(t, false, Options{})
	getJSON(t, srv.URL+"/dist?u=0&v=42", http.StatusOK)
	getJSON(t, srv.URL+"/dist?u=0&v=42", http.StatusOK)
	getJSON(t, srv.URL+"/dist?u=bad", http.StatusBadRequest)
	getJSON(t, srv.URL+"/sssp?src=1", http.StatusOK)
	out := getJSON(t, srv.URL+"/metrics", http.StatusOK)
	eps := out["endpoints"].(map[string]any)
	dist := eps["dist"].(map[string]any)
	if int(dist["requests"].(float64)) != 3 || int(dist["errors"].(float64)) != 1 {
		t.Fatalf("dist counters wrong: %v", dist)
	}
	sssp := eps["sssp"].(map[string]any)
	if int(sssp["requests"].(float64)) != 1 {
		t.Fatalf("sssp counters wrong: %v", sssp)
	}
	snap := s.Metrics()
	if snap.CacheHits+snap.CacheMisses == 0 {
		t.Fatal("cache counters missing from metrics")
	}
	if snap.Endpoints["dist"].AvgLatencyUS <= 0 {
		t.Fatal("latency counter missing")
	}
}

// TestConcurrentHammer drives /dist, /sssp, and /dist/batch from many
// goroutines at once against one shared factor and label cache. The
// point is the race detector run (make race): read-only factor sharing
// plus the locked LRU must survive concurrent traffic unharmed.
func TestConcurrentHammer(t *testing.T) {
	s, srv, n := testServerOpts(t, false, Options{CacheSize: 32})
	want := make(map[[2]int]float64)
	for _, p := range [][2]int{{0, 42}, {1, 17}, {3, 99}} {
		want[p] = s.Cache().Dist(p[0], p[1])
	}
	client := srv.Client()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 40; q++ {
				switch q % 3 {
				case 0:
					u, v := rng.Intn(n), rng.Intn(n)
					resp, err := client.Get(fmt.Sprintf("%s/dist?u=%d&v=%d", srv.URL, u, v))
					if err != nil {
						report(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						report(fmt.Errorf("dist status %d", resp.StatusCode))
						return
					}
				case 1:
					resp, err := client.Get(fmt.Sprintf("%s/sssp?src=%d", srv.URL, rng.Intn(n)))
					if err != nil {
						report(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						report(fmt.Errorf("sssp status %d", resp.StatusCode))
						return
					}
				default:
					pairs := [][2]int{{rng.Intn(n), rng.Intn(n)}, {0, 42}, {1, 17}}
					payload, _ := json.Marshal(map[string]any{"pairs": pairs})
					resp, err := client.Post(srv.URL+"/dist/batch", "application/json", bytes.NewReader(payload))
					if err != nil {
						report(err)
						return
					}
					var out struct {
						Dists []any `json:"dists"`
					}
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
						resp.Body.Close()
						report(fmt.Errorf("batch decode: %w", err))
						return
					}
					resp.Body.Close()
					if d, ok := out.Dists[1].(float64); !ok || math.Abs(d-want[[2]int{0, 42}]) > 1e-9 {
						report(fmt.Errorf("batch dist(0,42) = %v, want %g", out.Dists[1], want[[2]int{0, 42}]))
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	if err, open := <-errs; open {
		t.Fatal(err)
	}
	// Spot-check correctness after the stampede.
	for p, d := range want {
		out := getJSON(t, fmt.Sprintf("%s/dist?u=%d&v=%d", srv.URL, p[0], p[1]), http.StatusOK)
		if math.Abs(out["dist"].(float64)-d) > 1e-9 {
			t.Fatalf("dist(%d,%d) drifted to %v, want %g", p[0], p[1], out["dist"], d)
		}
	}
}

// TestInFlightLimiter saturates a MaxInFlight=1 server with a slow
// request and checks that overflow traffic is shed with 503 and counted.
func TestInFlightLimiter(t *testing.T) {
	f, res, n, _ := testFactor(t)
	s := New(f, res, n, Options{MaxInFlight: 1})
	release := make(chan struct{})
	entered := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /slow", s.instrument("dist", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	mux.Handle("/", s.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := srv.Client().Get(srv.URL + "/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	resp, err := srv.Client().Get(srv.URL + "/dist?u=0&v=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server answered %d, want 503", resp.StatusCode)
	}
	close(release)
	<-done
	if s.Metrics().InflightRejected == 0 {
		t.Fatal("rejected request not counted")
	}
}

// TestGracefulShutdownDrains starts RunServer, parks a request in the
// handler, cancels the serving context mid-request, and asserts the
// in-flight request still completes with a full response while the
// listener stops accepting new work.
func TestGracefulShutdownDrains(t *testing.T) {
	inHandler := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		<-release
		fmt.Fprint(w, "drained ok")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: mux}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- RunServer(ctx, hs, ln, 5*time.Second) }()

	url := "http://" + ln.Addr().String()
	bodyc := make(chan string, 1)
	go func() {
		resp, err := http.Get(url + "/slow")
		if err != nil {
			bodyc <- "request failed: " + err.Error()
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		bodyc <- string(raw)
	}()

	<-inHandler
	cancel() // SIGINT analogue: shutdown begins with the request in flight
	time.Sleep(50 * time.Millisecond)
	close(release)

	if body := <-bodyc; body != "drained ok" {
		t.Fatalf("in-flight request not drained: %q", body)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("RunServer returned %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunServer did not return after shutdown")
	}
	// New connections must be refused after shutdown.
	if _, err := http.Get(url + "/slow"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
