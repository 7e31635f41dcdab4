// Trace input: a payment trace read from CSV so captured or
// externally produced workloads (a measurement trace, a trimmed replay of a
// production log) can drive the simulator instead of the synthetic
// generator. The scenario engine's "replay" workload type is built on this.
package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/splicer-pcn/splicer/internal/graph"
)

// traceHeader is the canonical column set of a trace CSV.
var traceHeader = []string{"id", "sender", "recipient", "value", "arrival", "deadline"}

// ReadTrace parses a trace CSV. Rows are validated the way Generate's output
// is shaped: positive values, distinct endpoints, deadlines at or after
// arrival, and arrivals sorted non-decreasing — a replayed trace must be a
// plausible simulator input, not just parseable.
func ReadTrace(r io.Reader) ([]Tx, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("workload: trace: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("workload: trace: empty file")
	}
	if len(records[0]) != len(traceHeader) || records[0][0] != "id" {
		return nil, fmt.Errorf("workload: trace: missing header %v", traceHeader)
	}
	rows := records[1:]
	if len(rows) == 0 {
		return nil, fmt.Errorf("workload: trace: no transactions")
	}
	txs := make([]Tx, 0, len(rows))
	for i, rec := range rows {
		var tx Tx
		var s, rcpt int
		var errs [6]error
		tx.ID, errs[0] = strconv.Atoi(rec[0])
		s, errs[1] = strconv.Atoi(rec[1])
		rcpt, errs[2] = strconv.Atoi(rec[2])
		tx.Value, errs[3] = strconv.ParseFloat(rec[3], 64)
		tx.Arrival, errs[4] = strconv.ParseFloat(rec[4], 64)
		tx.Deadline, errs[5] = strconv.ParseFloat(rec[5], 64)
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("workload: trace row %d: %w", i+1, err)
			}
		}
		tx.Sender, tx.Recipient = graph.NodeID(s), graph.NodeID(rcpt)
		switch {
		case s < 0 || rcpt < 0:
			return nil, fmt.Errorf("workload: trace row %d: negative endpoint", i+1)
		case s == rcpt:
			return nil, fmt.Errorf("workload: trace row %d: sender == recipient (%d)", i+1, s)
		case tx.Value <= 0:
			return nil, fmt.Errorf("workload: trace row %d: non-positive value %v", i+1, tx.Value)
		case tx.Arrival < 0:
			return nil, fmt.Errorf("workload: trace row %d: negative arrival %v", i+1, tx.Arrival)
		case tx.Deadline < tx.Arrival:
			return nil, fmt.Errorf("workload: trace row %d: deadline %v before arrival %v", i+1, tx.Deadline, tx.Arrival)
		}
		if len(txs) > 0 && tx.Arrival < txs[len(txs)-1].Arrival {
			return nil, fmt.Errorf("workload: trace row %d: arrivals not sorted (%v after %v)",
				i+1, tx.Arrival, txs[len(txs)-1].Arrival)
		}
		txs = append(txs, tx)
	}
	return txs, nil
}

// MaxNode returns the highest endpoint id referenced by the trace (-1 for an
// empty trace); replay validation checks it against the topology.
func MaxNode(txs []Tx) graph.NodeID {
	max := graph.NodeID(-1)
	for _, tx := range txs {
		if tx.Sender > max {
			max = tx.Sender
		}
		if tx.Recipient > max {
			max = tx.Recipient
		}
	}
	return max
}
