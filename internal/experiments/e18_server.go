package experiments

// E18: throughput of the multi-session network server (internal/server) —
// the wire protocol, admission gate, per-session snapshots and
// subscription pushes measured end to end over real TCP connections, with
// the remote answers pinned bit-identical to in-process evaluation.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"incdata/internal/engine"
	"incdata/internal/queryparse"
	"incdata/internal/server"
	"incdata/internal/server/client"
	"incdata/internal/workload"
)

// wireFlat serializes an answer the way the server does — canonical tuple
// order, textual value cells — so remote and local answers compare
// bit-identically.
func wireFlat(cols []string, rows [][]string) string {
	parts := make([]string, 0, len(rows)+1)
	parts = append(parts, strings.Join(cols, ","))
	for _, r := range rows {
		parts = append(parts, strings.Join(r, ","))
	}
	return strings.Join(parts, "\n")
}

// localWireFlat evaluates in-process and serializes like the server.
func localWireFlat(eng *engine.Engine, query string, opts engine.Options) (string, error) {
	expr, err := queryparse.Parse(query)
	if err != nil {
		return "", err
	}
	rel, err := eng.Eval(expr, opts)
	if err != nil {
		return "", err
	}
	cols := append([]string(nil), rel.Schema().Attrs...)
	ts := rel.SortedTuples()
	rows := make([][]string, len(ts))
	for i, t := range ts {
		row := make([]string, len(t))
		for j, v := range t {
			row[j] = v.String()
		}
		rows[i] = row
	}
	return wireFlat(cols, rows), nil
}

// E18ServerThroughput measures the network server end to end: client
// fleets of growing size fire a mixed request stream — certain-answer
// queries on pinned snapshots, updates with commits, ASOF time-travel to
// commits other clients made — at one server over real TCP, while a
// subscriber receives every commit's view delta.  qps is the headline
// number; agree pins the remote head answer bit-identical to in-process
// evaluation after each sweep, and pushes counts the subscription deltas
// delivered.
func (h Harness) E18ServerThroughput(orders int, clientCounts []int, requests int) Result {
	res := Result{
		ID:     "E18",
		Title:  "Server throughput: concurrent sessions over the wire protocol",
		Header: []string{"clients", "requests", "seconds", "qps", "pushes", "agree"},
		Notes: "Each sweep fires a mixed stream (80% QUERY, 10% UPDATE+COMMIT, 10% ASOF) from the\n" +
			"given number of concurrent sessions at one server over real TCP; qps counts\n" +
			"requests served per second.  pushes counts subscription deltas received by a\n" +
			"subscriber session; agree pins the remote head answer bit-identical to in-process\n" +
			"evaluation on the same engine after the sweep.",
	}
	if len(clientCounts) == 0 {
		clientCounts = []int{1}
	}
	const unpaidQ = "diff(project(Order; o_id), project(Pay; order))"
	plannerText := ""
	if h.Planner == engine.PlannerOff {
		plannerText = "off"
	}

	d, _ := workload.Orders(workload.OrdersConfig{Orders: orders, PaidFraction: 0.7, NullRate: 0.1, Seed: 18})
	eng := h.engine(d)
	srv, err := server.New(eng, server.Config{Workers: h.Workers})
	if err != nil {
		res.Notes += "\nserver: " + err.Error()
		return res
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		res.Notes += "\nlisten: " + err.Error()
		return res
	}
	defer srv.Close()

	setup, err := client.Dial(addr.String())
	if err != nil {
		res.Notes += "\ndial: " + err.Error()
		return res
	}
	defer setup.Close()
	if err := setup.Register("unpaid", unpaidQ, "certain", plannerText); err != nil {
		res.Notes += "\nregister: " + err.Error()
		return res
	}
	subscriber, err := client.Dial(addr.String())
	if err != nil {
		res.Notes += "\ndial: " + err.Error()
		return res
	}
	defer subscriber.Close()
	if _, err := subscriber.Subscribe("unpaid"); err != nil {
		res.Notes += "\nsubscribe: " + err.Error()
		return res
	}

	var (
		commitMu sync.Mutex
		commits  []string
		nextOID  int
	)
	recordCommit := func(id string) {
		commitMu.Lock()
		defer commitMu.Unlock()
		commits = append(commits, id)
	}
	someCommit := func(rnd *rand.Rand) string {
		commitMu.Lock()
		defer commitMu.Unlock()
		if len(commits) == 0 {
			return ""
		}
		return commits[rnd.Intn(len(commits))]
	}
	freshOID := func() string {
		commitMu.Lock()
		defer commitMu.Unlock()
		nextOID++
		return fmt.Sprintf("oid-e18-%d", nextOID)
	}

	for _, nclients := range clientCounts {
		perClient := requests / nclients
		if perClient == 0 {
			perClient = 1
		}
		var wg sync.WaitGroup
		var failed sync.Once
		var sweepErr error
		served := 0
		start := time.Now()
		for c := 0; c < nclients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rnd := rand.New(rand.NewSource(int64(1000*nclients + c)))
				cl, err := client.Dial(addr.String())
				if err != nil {
					failed.Do(func() { sweepErr = err })
					return
				}
				defer cl.Close()
				for i := 0; i < perClient; i++ {
					var err error
					switch {
					case i%10 == 0:
						if _, err = cl.Update(client.Add("Order", freshOID(), "pr-e18")); err == nil {
							var id string
							if id, err = cl.Commit("e18"); err == nil {
								recordCommit(id)
							}
						}
					case i%10 == 1:
						if ref := someCommit(rnd); ref != "" {
							if _, err = cl.AsOf(ref); err == nil {
								_, err = cl.Query(unpaidQ, "certain", plannerText, 0)
							}
							// Un-pin so later queries read fresh state.
							if err == nil {
								_, err = cl.Refresh()
							}
						}
					default:
						_, err = cl.Query(unpaidQ, "certain", plannerText, 0)
					}
					if err != nil {
						failed.Do(func() { sweepErr = fmt.Errorf("client %d: %w", c, err) })
						return
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		served = nclients * perClient
		if sweepErr != nil {
			res.Rows = append(res.Rows, []string{itoa(nclients), itoa(served), "-", "-", "-", "error: " + sweepErr.Error()})
			continue
		}

		// Drain this sweep's subscription pushes.
		pushes := 0
		for {
			if _, err := subscriber.NextDelta(200 * time.Millisecond); err != nil {
				break
			}
			pushes++
		}

		// Quiesced agree check: the remote head answer must serialize
		// identically to in-process evaluation of the same query.
		agree := false
		if _, err := setup.Refresh(); err == nil {
			resp, rerr := setup.Query(unpaidQ, "certain", plannerText, 0)
			opts := h.opts(engine.ModeCertain)
			opts.MaxWorlds = 1 << 20
			opts.Coded = engine.CodedAuto
			want, lerr := localWireFlat(eng, unpaidQ, opts)
			agree = rerr == nil && lerr == nil && wireFlat(resp.Columns, resp.Rows) == want
		}

		res.Rows = append(res.Rows, []string{
			itoa(nclients), itoa(served), fmt.Sprintf("%.4f", elapsed),
			fmt.Sprintf("%.0f", float64(served)/elapsed), itoa(pushes), fmt.Sprintf("%v", agree),
		})
	}
	return res
}
