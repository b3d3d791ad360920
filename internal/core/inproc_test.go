package core

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"doxmeter/internal/crawler"
)

// inprocHost is the URL host the transport tests register their handler
// under; .invalid never resolves, so a request that wrongly fell through to
// the real transport would fail loudly.
const inprocHost = "svc.invalid"

const inprocURL = "http://" + inprocHost + "/item"

func inprocClient(h http.Handler) *http.Client {
	return &http.Client{Transport: &localTransport{handlers: map[string]http.Handler{inprocHost: h}}}
}

// inprocFetcher is a single-attempt Fetcher over the in-process transport,
// so each test observes exactly one round trip.
func inprocFetcher(h http.Handler, timeout time.Duration) *crawler.Fetcher {
	return crawler.NewFetcher(crawler.Options{
		Client:           inprocClient(h),
		Retries:          -1,
		BreakerThreshold: -1,
		RequestTimeout:   timeout,
	})
}

func get(t *testing.T, c *http.Client, ctx context.Context, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c.Do(req)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(b)
}

func TestInprocDefault200(t *testing.T) {
	c := inprocClient(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "hello")
	}))
	resp, err := get(t, c, context.Background(), inprocURL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.ContentLength != 5 {
		t.Fatalf("status %d, content length %d; want 200, 5", resp.StatusCode, resp.ContentLength)
	}
	if body := readAll(t, resp); body != "hello" {
		t.Fatalf("body %q", body)
	}
}

func TestInprocExplicit404(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		w.WriteHeader(http.StatusOK) // superfluous, ignored as on the wire
		_, _ = io.WriteString(w, "gone")
	})
	resp, err := get(t, inprocClient(h), context.Background(), inprocURL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	readAll(t, resp)
	if _, err := inprocFetcher(h, 0).Get(context.Background(), inprocURL); !errors.Is(err, crawler.ErrNotFound) {
		t.Fatalf("Fetcher.Get = %v, want ErrNotFound", err)
	}
}

func TestInprocRetryAfterPassesThrough(t *testing.T) {
	c := inprocClient(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	resp, err := get(t, c, context.Background(), inprocURL)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("status %d, Retry-After %q; want 429, 7", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

func TestInprocAbortBeforeWrite(t *testing.T) {
	c := inprocClient(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	resp, err := get(t, c, context.Background(), inprocURL)
	if err == nil {
		resp.Body.Close()
		t.Fatal("abort before any write returned a response")
	}
	if !errors.Is(err, errConnAborted) {
		t.Fatalf("Do = %v, want a connection abort", err)
	}
}

func TestInprocAbortMidBody(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", "10")
		_, _ = io.WriteString(w, "0123")
		panic(http.ErrAbortHandler)
	})
	resp, err := get(t, inprocClient(h), context.Background(), inprocURL)
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(rerr, io.ErrUnexpectedEOF) {
		t.Fatalf("body read = %v, want io.ErrUnexpectedEOF", rerr)
	}
	if _, err := inprocFetcher(h, 0).Get(context.Background(), inprocURL); !errors.Is(err, crawler.ErrTruncatedBody) {
		t.Fatalf("Fetcher.Get = %v, want ErrTruncatedBody", err)
	}
}

func TestInprocStallHitsDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	stall := true
	var stalled *inprocExchange
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !stall {
			_, _ = io.WriteString(w, "fresh")
			return
		}
		// The injector's stall mode: headers and a partial body, then a
		// hang that honors the request context, then an abort.
		stalled = w.(*inprocExchange)
		w.Header().Set("Content-Length", "100")
		_, _ = io.WriteString(w, "partial")
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
		panic(http.ErrAbortHandler)
	})
	f := inprocFetcher(h, timeout)
	start := time.Now()
	_, err := f.Get(context.Background(), inprocURL)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled Get = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > timeout+2*time.Second {
		t.Fatalf("stalled Get returned after %v, deadline %v", elapsed, timeout)
	}
	// The handler had returned, so the exchange was reset and pooled.
	if !stalled.closed || len(stalled.buf) != 0 || stalled.hdr != nil || stalled.wrote {
		t.Fatal("stalled exchange was not reset for reuse")
	}
	stall = false
	body, err := f.GetText(context.Background(), inprocURL)
	if err != nil || body != "fresh" {
		t.Fatalf("Get after stall = %q, %v; want fresh", body, err)
	}
}

func TestInprocCancelledContextSkipsHandler(t *testing.T) {
	called := false
	c := inprocClient(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { called = true }))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, err := get(t, c, ctx, inprocURL)
	if err == nil {
		resp.Body.Close()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	if called {
		t.Fatal("handler invoked for an already-cancelled request")
	}
}

func TestInprocUnregisteredHostUsesWire(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "wire")
	}))
	defer srv.Close()
	defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	c := inprocClient(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		t.Error("registered handler served an unregistered host")
	}))
	resp, err := get(t, c, context.Background(), srv.URL+"/x")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); body != "wire" {
		t.Fatalf("body %q, want wire", body)
	}
}

// TestInprocHandlerPanicPropagates pins the deliberate difference from
// net/http's server: a panic other than http.ErrAbortHandler is a bug in the
// handler, so it surfaces on the caller's stack instead of being retried as
// a network fault.
func TestInprocHandlerPanicPropagates(t *testing.T) {
	bug := errors.New("simulator bug")
	calls := 0
	h := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		calls++
		panic(bug)
	})
	f := crawler.NewFetcher(crawler.Options{Client: inprocClient(h), Retries: 3, Backoff: time.Millisecond})
	func() {
		defer func() {
			if p := recover(); p != bug {
				t.Fatalf("recovered %v, want the handler's panic value", p)
			}
		}()
		_, _ = f.Get(context.Background(), inprocURL)
		t.Fatal("Get returned after a handler panic")
	}()
	if calls != 1 {
		t.Fatalf("handler ran %d times; a panic must not be retried", calls)
	}
}

// inprocGetAllocs bounds one warm Fetcher.Get through the in-process
// transport at its measured value: the request, its URL, the attempt
// deadline, the response struct, the handler's header map and values, and
// the returned body copy. Dispatching the handler on a goroutine of its own
// costs 4 more, a per-attempt context.WithTimeout (timer context, timer,
// timer callback, cancel closure) 3 more and an io.LimitReader around the
// body 1 more, so a return to any of them fails here.
const inprocGetAllocs = 13

// inprocTextAllocs bounds one warm GetText of a 4 KiB body that the handler
// writes with io.WriteString: as for Get, with one header value instead of
// two and the returned string instead of the body copy. A writer without
// WriteString makes io.WriteString copy the body into a fresh []byte first,
// one more.
const inprocTextAllocs = 12

func TestInprocGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	ctx := context.Background()
	t.Run("Get", func(t *testing.T) {
		body := []byte(`{"ok":true}`)
		cl := strconv.Itoa(len(body))
		f := inprocFetcher(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", cl)
			_, _ = w.Write(body)
		}), time.Second)
		measureAllocs(t, inprocGetAllocs, func() error {
			_, err := f.Get(ctx, inprocURL)
			return err
		})
	})
	t.Run("GetText", func(t *testing.T) {
		body := strings.Repeat("x", 4<<10)
		f := inprocFetcher(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = io.WriteString(w, body)
		}), time.Second)
		measureAllocs(t, inprocTextAllocs, func() error {
			got, err := f.GetText(ctx, inprocURL)
			if err == nil && got != body {
				err = errors.New("GetText returned a different body")
			}
			return err
		})
	})
}

// measureAllocs fails t when a warm call of fetch allocates more than bound.
func measureAllocs(t *testing.T, bound int, fetch func() error) {
	t.Helper()
	if err := fetch(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := fetch(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per warm fetch", allocs)
	if allocs > float64(bound) {
		t.Fatalf("%.1f allocs per warm fetch, bound %d", allocs, bound)
	}
}
