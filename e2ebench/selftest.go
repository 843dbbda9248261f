package main

// The oracle's self-test: a corrupted answer and a stale version must
// both be rejected, or no verdict of the oracle counts.

import (
	"fmt"
)

func selfTest() error {
	v1, err := auctionDoc("selftest", 1, 12)
	if err != nil {
		return err
	}
	v2, err := auctionDoc("selftest", 2, 12)
	if err != nil {
		return err
	}
	h := newHistory()
	h.record("selftest", 1, v1.tree)
	h.record("selftest", 2, v2.tree)
	const q = "//open_auction[bidder]"
	right, err := expect(v2.tree, q)
	if err != nil {
		return err
	}
	good := renderAnswer(right)
	if err := h.check("selftest", 2, q, good, 0); err != nil {
		return fmt.Errorf("the correct answer was rejected: %w", err)
	}
	// A corrupted answer: one node's value changed.
	bad := renderAnswer(right)
	bad.Nodes[0].Value += "x"
	if h.check("selftest", 2, q, bad, 0) == nil {
		return fmt.Errorf("a corrupted answer was accepted")
	}
	// A stale version: the content of version 1 labeled version 2.
	old, err := expect(v1.tree, q)
	if err != nil {
		return err
	}
	if checkValue(old, good) == nil {
		return fmt.Errorf("the two versions answer %s alike; the stale-version case tests nothing", q)
	}
	if h.check("selftest", 2, q, renderAnswer(old), 0) == nil {
		return fmt.Errorf("an answer labeled with a newer version than its content was accepted")
	}
	// A version that was never registered.
	if h.check("selftest", 3, q, good, 0) == nil {
		return fmt.Errorf("an answer labeled with an unknown version was accepted")
	}
	// Wrong number and kind.
	n := 3.0
	if checkValue(numAns(4), &wireValue{Kind: "number", Number: &n}) == nil {
		return fmt.Errorf("a wrong number was accepted")
	}
	if checkValue(numAns(3), &wireValue{Kind: "string", Number: &n}) == nil {
		return fmt.Errorf("a wrong kind was accepted")
	}
	return nil
}

// renderAnswer renders an expected answer as the server would.
func renderAnswer(a answer) *wireValue {
	v := &wireValue{Kind: a.kind}
	switch a.kind {
	case "number":
		f := a.num
		v.Number = &f
	case "boolean":
		b := a.b
		v.Boolean = &b
		v.String = fmt.Sprint(b)
	case "node-set":
		n := len(a.nodes)
		v.Count = &n
		for i, nd := range a.nodes {
			if i == wireMaxNodes {
				break
			}
			name := ""
			if nd.kind == "element" || nd.kind == "attribute" {
				name = nd.name
			}
			val, tr := clipString(nd.value())
			v.Nodes = append(v.Nodes, wireNode{Type: nd.kind, Name: name, Value: val, Truncated: tr})
		}
		if n > 0 {
			v.String, v.Truncated = clipString(a.nodes[0].value())
		}
	}
	return v
}
