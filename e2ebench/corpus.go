package main

// Inputs of the three workloads: the documents (made with the
// repository's generators and sent to the program as XML text), the
// query templates and the per-round operation mixes. Every input is a
// function of the --seed value.

import (
	"fmt"

	"repro/internal/workload"
)

// clientDeadline bounds every request and every in-process call, in
// every workload. Ordinary evaluations, explored ones included, end
// well under it (the slowest, bottomup explorations on the 4 k-node
// documents, take under 1 s); see README.md for the runaway case.
const clientDeadline = 5e9 // nanoseconds, a time.Duration

// auctionTemplates are the serve-auction queries: the conformance
// auction queries (all but the bottomup runaway, see README.md) plus
// aggregate-wrapped and bare pairs across the four fragments.
var auctionTemplates = []string{
	"id(//open_auction[1]/bidder/personref)/name",
	"//europe/item[shipping]/name",
	"count(//africa/item) + count(//asia/item)",
	"//open_auction[bidder/personref = 'person1']",
	"//person[emailaddress][creditcard]/name",
	"sum(//current) div count(//open_auction) > 10",
	"count(//item[quantity > 2])",
	"//open_auction[count(bidder) > 2]/@id",
	"//person[starts-with(emailaddress, 'p1@')]/name",
	"count(//item[payment = 'cash'])",
	"//open_auction[bidder[position() = 1]/increase < current]",
	"count(//item)", "//item",
	"sum(//current)", "//current",
	"count(//open_auction[bidder])", "//open_auction[bidder]",
	"boolean(//person[creditcard])", "//person[creditcard]",
	"//item[@id = 'item0_3']",
}

// runawayQuery is the conformance query whose bottomup evaluation on a
// 4 k-node document runs for about 13 s. It is served in engine-large
// and cluster-readwrite, where no exploration sends it to bottomup on
// a large document, and probed for the cancellation lag in the traced
// serve-auction run.
const runawayQuery = "//open_auction/bidder[last()]/increase"

// wrappedPairs are the aggregate-wrapped queries and their bare paths.
var wrappedPairs = [][2]string{
	{"count(//item)", "//item"},
	{"sum(//current)", "//current"},
	{"count(//open_auction[bidder])", "//open_auction[bidder]"},
	{"boolean(//person[creditcard])", "//person[creditcard]"},
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// serveWarmRounds rounds run untimed before the serve-auction window:
// enough for every class of the mix to reach its first bottomup
// exploration (the 64th decision of a five-candidate class).
const serveWarmRounds = 8

// Corpus sizes. workload.Auction(seed, n) has about 20.5 n nodes.
const (
	serveDocs     = 4
	serveAuctionN = 200 // about 4.1 k nodes
	largeAuctionN = 2000
	clusterDocs   = 24
	clusterN      = 12 // about 250 nodes
)

// doc is one document of a corpus: its name, the XML text sent to the
// program, and the oracle's own parse of that text.
type doc struct {
	name string
	xml  string
	tree *otree
}

func auctionDoc(name string, seed int64, n int) (doc, error) {
	text := workload.Auction(seed, n).XMLString()
	t, err := parseOracle(text)
	if err != nil {
		return doc{}, fmt.Errorf("%s: %w", name, err)
	}
	return doc{name: name, xml: text, tree: t}, nil
}

// docSeed derives a generator seed from the run seed, so documents
// differ between seeds and between the documents of one corpus.
func docSeed(seed int64, salt int) int64 { return seed*1_000_003 + int64(salt)*7919 + 17 }
