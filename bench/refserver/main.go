// Command refserver is the benchmark's yardstick: a Go net/http server, as
// talkbackd is, whose two requests cost a fixed amount of work. The runner
// interleaves them with every workload so that a timing can be divided by how
// fast this machine was at that moment. It shares no code with the system
// under test, so no change to the repository moves it.
//
//	POST /echo   decode a {"sql": ...} body, reply with a fixed 400-byte JSON
//	             object: the cost of one loopback HTTP exchange.
//	POST /work   build and probe a 40 000-entry hash map, encode 20 rows:
//	             a few milliseconds of memory-bound engine-like work.
//	GET  /stats  200, the readiness probe the runner also uses on talkbackd.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
)

func work() []byte {
	const n = 40000
	m := make(map[int64]int32, n)
	for i := int64(0); i < n; i++ {
		m[i*2654435761%1000003] = int32(i)
	}
	hits := 0
	for i := int64(0); i < n; i++ {
		if _, ok := m[i*40503%1000003]; ok {
			hits++
		}
	}
	rows := make([]string, 20)
	for i := range rows {
		rows[i] = fmt.Sprintf("Row %d of %d", i, hits)
	}
	out, _ := json.MarshalIndent(map[string]any{"rows": rows, "hits": hits}, "", "  ")
	return out
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8081", "listen address")
	flag.Parse()
	echo, _ := json.Marshal(map[string]string{"answer": strings.Repeat("x", 380)})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /echo", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			SQL string `json:"sql"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(echo)
	})
	mux.HandleFunc("POST /work", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(work())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("{}")) })
	log.Fatal(http.ListenAndServe(*addr, mux))
}
