package main

// The answer oracle. It parses the XML text the benchmark sends to the
// program with encoding/xml into a tree of its own, and answers every
// query template with hand-written Go over that tree. It imports
// nothing from the repository, so a fault in the program's parser,
// index or engines cannot hide by being shared with the check.

import (
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// onode is one node of the oracle's tree: the root, an element, an
// attribute or a text node.
type onode struct {
	kind   string // "root", "element", "attribute" or "text"
	name   string
	data   string // attribute value or text
	parent *onode
	attrs  []*onode
	kids   []*onode // elements and text, in document order
}

// otree is a parsed document plus the lookups the templates need.
type otree struct {
	root *onode
	ids  map[string]*onode // value of an "id" attribute -> its element
}

func parseOracle(text string) (*otree, error) {
	dec := xml.NewDecoder(strings.NewReader(text))
	t := &otree{root: &onode{kind: "root"}, ids: map[string]*onode{}}
	cur := t.root
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("oracle: parse: %w", err)
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			el := &onode{kind: "element", name: tk.Name.Local, parent: cur}
			for _, a := range tk.Attr {
				el.attrs = append(el.attrs, &onode{kind: "attribute", name: a.Name.Local, data: a.Value, parent: el})
				if a.Name.Local == "id" {
					if _, dup := t.ids[a.Value]; !dup {
						t.ids[a.Value] = el
					}
				}
			}
			cur.kids = append(cur.kids, el)
			cur = el
		case xml.EndElement:
			cur = cur.parent
		case xml.CharData:
			if n := len(cur.kids); n > 0 && cur.kids[n-1].kind == "text" {
				cur.kids[n-1].data += string(tk)
			} else {
				cur.kids = append(cur.kids, &onode{kind: "text", data: string(tk), parent: cur})
			}
		}
	}
	if cur != t.root {
		return nil, fmt.Errorf("oracle: parse: unclosed element %q", cur.name)
	}
	return t, nil
}

// value is the string value of a node.
func (n *onode) value() string {
	switch n.kind {
	case "attribute", "text":
		return n.data
	}
	var sb strings.Builder
	var walk func(*onode)
	walk = func(m *onode) {
		for _, k := range m.kids {
			if k.kind == "text" {
				sb.WriteString(k.data)
			} else {
				walk(k)
			}
		}
	}
	walk(n)
	return sb.String()
}

// desc returns the element descendants of n named name, in document
// order.
func desc(n *onode, name string) []*onode {
	var out []*onode
	var walk func(*onode)
	walk = func(m *onode) {
		for _, k := range m.kids {
			if k.kind != "element" {
				continue
			}
			if k.name == name {
				out = append(out, k)
			}
			walk(k)
		}
	}
	walk(n)
	return out
}

// kids returns the element children of n named name.
func kids(n *onode, name string) []*onode {
	var out []*onode
	for _, k := range n.kids {
		if k.kind == "element" && k.name == name {
			out = append(out, k)
		}
	}
	return out
}

func kidsOf(ns []*onode, name string) []*onode {
	var out []*onode
	for _, n := range ns {
		out = append(out, kids(n, name)...)
	}
	return out
}

func attr(n *onode, name string) (*onode, bool) {
	for _, a := range n.attrs {
		if a.name == name {
			return a, true
		}
	}
	return nil, false
}

func hasKid(n *onode, name string) bool { return len(kids(n, name)) > 0 }

// num is XPath's string-to-number conversion for the decimal strings
// the generators write.
func num(s string) float64 {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

// answer is an expected query result.
type answer struct {
	kind  string // "node-set", "number" or "boolean"
	nodes []*onode
	num   float64
	b     bool
}

func nodesAns(ns []*onode) answer { return answer{kind: "node-set", nodes: ns} }
func numAns(f float64) answer     { return answer{kind: "number", num: f} }
func boolAns(b bool) answer       { return answer{kind: "boolean", b: b} }

func filter(ns []*onode, keep func(*onode) bool) []*onode {
	var out []*onode
	for _, n := range ns {
		if keep(n) {
			out = append(out, n)
		}
	}
	return out
}

// anyValue reports whether some node in ns has a string value for
// which ok holds: the existential semantics of comparing a node-set.
func anyValue(ns []*onode, ok func(string) bool) bool {
	for _, n := range ns {
		if ok(n.value()) {
			return true
		}
	}
	return false
}

func sumValues(ns []*onode) float64 {
	s := 0.0
	for _, n := range ns {
		s += num(n.value())
	}
	return s
}

// auctionAnswers holds the hand-written answer of every fixed auction
// template, keyed by query text.
var auctionAnswers = map[string]func(*otree) answer{
	"id(//open_auction[1]/bidder/personref)/name": func(t *otree) answer {
		// //open_auction[1]: the first open_auction child of each parent.
		var firsts []*onode
		seen := map[*onode]bool{}
		for _, oa := range desc(t.root, "open_auction") {
			if !seen[oa.parent] {
				seen[oa.parent] = true
				firsts = append(firsts, oa)
			}
		}
		targets := map[*onode]bool{}
		for _, ref := range kidsOf(kidsOf(firsts, "bidder"), "personref") {
			for _, tok := range strings.Fields(ref.value()) {
				if el, ok := t.ids[tok]; ok {
					targets[el] = true
				}
			}
		}
		// Document order: walk the people that are targets.
		var out []*onode
		for _, el := range allElements(t.root) {
			if targets[el] {
				out = append(out, kids(el, "name")...)
			}
		}
		return nodesAns(out)
	},
	"//europe/item[shipping]/name": func(t *otree) answer {
		items := filter(kidsOf(desc(t.root, "europe"), "item"), func(n *onode) bool { return hasKid(n, "shipping") })
		return nodesAns(kidsOf(items, "name"))
	},
	"count(//africa/item) + count(//asia/item)": func(t *otree) answer {
		return numAns(float64(len(kidsOf(desc(t.root, "africa"), "item")) + len(kidsOf(desc(t.root, "asia"), "item"))))
	},
	"//open_auction[bidder/personref = 'person1']": func(t *otree) answer {
		return nodesAns(filter(desc(t.root, "open_auction"), func(n *onode) bool {
			return anyValue(kidsOf(kids(n, "bidder"), "personref"), func(s string) bool { return s == "person1" })
		}))
	},
	"//person[emailaddress][creditcard]/name": func(t *otree) answer {
		ps := filter(desc(t.root, "person"), func(n *onode) bool { return hasKid(n, "emailaddress") && hasKid(n, "creditcard") })
		return nodesAns(kidsOf(ps, "name"))
	},
	"sum(//current) div count(//open_auction) > 10": func(t *otree) answer {
		return boolAns(sumValues(desc(t.root, "current"))/float64(len(desc(t.root, "open_auction"))) > 10)
	},
	"count(//item[quantity > 2])": func(t *otree) answer {
		return numAns(float64(len(filter(desc(t.root, "item"), func(n *onode) bool {
			return anyValue(kids(n, "quantity"), func(s string) bool { return num(s) > 2 })
		}))))
	},
	"//open_auction/bidder[last()]/increase": func(t *otree) answer {
		var last []*onode
		for _, oa := range desc(t.root, "open_auction") {
			if bs := kids(oa, "bidder"); len(bs) > 0 {
				last = append(last, bs[len(bs)-1])
			}
		}
		return nodesAns(kidsOf(last, "increase"))
	},
	"//open_auction[count(bidder) > 2]/@id": func(t *otree) answer {
		var out []*onode
		for _, oa := range desc(t.root, "open_auction") {
			if len(kids(oa, "bidder")) > 2 {
				if a, ok := attr(oa, "id"); ok {
					out = append(out, a)
				}
			}
		}
		return nodesAns(out)
	},
	"//person[starts-with(emailaddress, 'p1@')]/name": func(t *otree) answer {
		ps := filter(desc(t.root, "person"), func(n *onode) bool {
			em := kids(n, "emailaddress")
			return len(em) > 0 && strings.HasPrefix(em[0].value(), "p1@")
		})
		return nodesAns(kidsOf(ps, "name"))
	},
	"count(//item[payment = 'cash'])": func(t *otree) answer {
		return numAns(float64(len(filter(desc(t.root, "item"), func(n *onode) bool {
			return anyValue(kids(n, "payment"), func(s string) bool { return s == "cash" })
		}))))
	},
	"//open_auction[bidder[position() = 1]/increase < current]": func(t *otree) answer {
		return nodesAns(filter(desc(t.root, "open_auction"), func(n *onode) bool {
			bs := kids(n, "bidder")
			if len(bs) == 0 {
				return false
			}
			for _, inc := range kids(bs[0], "increase") {
				for _, cur := range kids(n, "current") {
					if num(inc.value()) < num(cur.value()) {
						return true
					}
				}
			}
			return false
		}))
	},
	"count(//item)":  func(t *otree) answer { return numAns(float64(len(desc(t.root, "item")))) },
	"//item":         func(t *otree) answer { return nodesAns(desc(t.root, "item")) },
	"sum(//current)": func(t *otree) answer { return numAns(sumValues(desc(t.root, "current"))) },
	"//current":      func(t *otree) answer { return nodesAns(desc(t.root, "current")) },
	"count(//open_auction[bidder])": func(t *otree) answer {
		return numAns(float64(len(filter(desc(t.root, "open_auction"), func(n *onode) bool { return hasKid(n, "bidder") }))))
	},
	"//open_auction[bidder]": func(t *otree) answer {
		return nodesAns(filter(desc(t.root, "open_auction"), func(n *onode) bool { return hasKid(n, "bidder") }))
	},
	"boolean(//person[creditcard])": func(t *otree) answer {
		return boolAns(len(filter(desc(t.root, "person"), func(n *onode) bool { return hasKid(n, "creditcard") })) > 0)
	},
	"//person[creditcard]": func(t *otree) answer {
		return nodesAns(filter(desc(t.root, "person"), func(n *onode) bool { return hasKid(n, "creditcard") }))
	},
	"//item[@id = 'item0_3']": func(t *otree) answer { return byID(t, "item", "item0_3", "") },
}

// byID answers //elem[@id = 'v'] (and //elem[@id = 'v']/child when
// child is set) by scanning attributes, not through the id map.
func byID(t *otree, elem, v, child string) answer {
	ms := filter(desc(t.root, elem), func(n *onode) bool {
		a, ok := attr(n, "id")
		return ok && a.data == v
	})
	if child != "" {
		ms = kidsOf(ms, child)
	}
	return nodesAns(ms)
}

func allElements(n *onode) []*onode {
	var out []*onode
	var walk func(*onode)
	walk = func(m *onode) {
		for _, k := range m.kids {
			if k.kind == "element" {
				out = append(out, k)
				walk(k)
			}
		}
	}
	walk(n)
	return out
}

// personLookup and itemLookup are the parametrized templates of the
// cluster workload; their ids are drawn per operation.
func personLookup(id int) string { return fmt.Sprintf("id('person%d')/name", id) }
func itemLookup(region, id int) string {
	return fmt.Sprintf("id('item%d_%d')/name", region, id)
}

// absentIDQuery selects by an id no generated document holds. The
// XPatterns engine answers it with every person's name instead of
// none; engine-large carries it as its known-fault operation.
const absentIDQuery = "//person[@id = 'person999999']/name"

// expect answers a query text over an oracle tree: a fixed template,
// or one of the parametrized lookups.
func expect(t *otree, q string) (answer, error) {
	if f, ok := auctionAnswers[q]; ok {
		return f(t), nil
	}
	if q == absentIDQuery {
		return byID(t, "person", "person999999", "name"), nil
	}
	var a, b int
	if n, _ := fmt.Sscanf(q, "id('person%d')/name", &a); n == 1 && q == personLookup(a) {
		return idLookup(t, fmt.Sprintf("person%d", a), "name"), nil
	}
	if n, _ := fmt.Sscanf(q, "id('item%d_%d')/name", &a, &b); n == 2 && q == itemLookup(a, b) {
		return idLookup(t, fmt.Sprintf("item%d_%d", a, b), "name"), nil
	}
	return answer{}, fmt.Errorf("oracle: no hand-written answer for %q", q)
}

// idLookup answers id('v')/child.
func idLookup(t *otree, v, child string) answer {
	el, ok := t.ids[v]
	if !ok {
		return nodesAns(nil)
	}
	return nodesAns(kids(el, child))
}
