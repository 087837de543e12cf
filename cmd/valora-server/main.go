// Command valora-server exposes the simulated VaLoRA runtime over
// HTTP. The server holds one persistent step-wise serving engine per
// system kind: the OpenAI-compatible completion endpoints submit into
// the live engine (virtual clock, prefix cache and adapter residency
// carry across requests). Whole-trace replays, single-instance or
// across a cluster, are valora-bench experiments.
//
// Usage:
//
//	valora-server [-addr :8080] [-system VaLoRA] [-model qwen]
//	              [-adapters a,b,c] [-trace capture.jsonl] [-drain 10s]
//
// Endpoints:
//
//	POST /v1/chat/completions — OpenAI chat (stream=true for SSE); extensions
//	                            {"adapter_id":1,"input_tokens":400,"output_tokens":120,
//	                             "images":1,"system":"S-LoRA","deadline_ms":500}
//	POST /v1/completions      — OpenAI legacy completions (same extensions)
//	GET  /v1/models           — registered adapters as models
//	GET  /metrics             — Prometheus text exposition
//	GET  /v1/trace            — captured per-request trace (JSONL)
//	GET  /healthz
//
// On SIGINT/SIGTERM the server shuts down gracefully: no new
// connections, in-flight requests get -drain to finish, and when
// -trace is set the captured per-request trace is flushed to the file
// before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"valora/internal/lmm"
	"valora/internal/serving"
	"valora/internal/simgpu"
	"valora/internal/trace"
)

// Connection timeouts: a client gets readHeaderTimeout to send its
// request headers and an idle keep-alive connection is closed after
// idleTimeout, so stalled or abandoned connections cannot pin server
// resources.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("valora-server: ")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		system    = flag.String("system", "VaLoRA", "serving system: VaLoRA, S-LoRA, Punica, dLoRA")
		modelName = flag.String("model", "qwen", "model: qwen, llava7b, llava13b")
		adapters  = flag.String("adapters", "", "comma-separated adapter names to register as /v1/models entries (name i = adapter ID i); adapter_id must then name one of them")
		traceOut  = flag.String("trace", "", "capture one trace row per request; flushed here on shutdown (and served live at /v1/trace)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout for in-flight requests")
	)
	flag.Parse()

	var model lmm.Config
	switch strings.ToLower(*modelName) {
	case "qwen":
		model = lmm.QwenVL7B()
	case "llava7b":
		model = lmm.LLaVA7B()
	case "llava13b":
		model = lmm.LLaVA13B()
	default:
		log.Fatalf("unknown model %q", *modelName)
	}

	kind, err := serving.SystemByName(*system)
	if err != nil {
		log.Fatal(err)
	}

	frontend := serving.NewFrontend(kind, simgpu.A100(), model)
	if *adapters != "" {
		names := strings.Split(*adapters, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		frontend.RegisterAdapters(names...)
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder()
		frontend.SetTraceRecorder(rec)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           frontend,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	// Graceful shutdown: Shutdown stops the listener and waits for
	// in-flight handlers (each stepping a virtual request to
	// completion) up to the drain timeout, then the final trace flush
	// runs — a SIGTERM never loses the capture.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-stop
		log.Printf("received %s, draining for up to %s", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
	}()

	log.Printf("serving %s on %s at %s", model.Name, kind, *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done

	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace flush: %v", err)
		}
		if err := rec.WriteJSONL(f); err != nil {
			log.Fatalf("trace flush: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("trace flush: %v", err)
		}
		log.Printf("flushed %d trace rows to %s", rec.Len(), *traceOut)
	}
	log.Print("shutdown complete")
}
