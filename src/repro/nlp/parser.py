"""Deterministic typed-dependency parser.

Replaces the Stanford Parser for the sentence shapes privacy policies
use.  The strategy is grammar-driven rather than learned:

1. POS-tag the sentence (if not already tagged).
2. Segment subordinate clauses (marked by "if", "when", "unless", ...)
   and relative clauses (WDT/WP).
3. Find verb groups (modal/auxiliary chains ending at a head verb) and
   the copular "be + able/unable" predicate.
4. Pick the root: head of the first finite verb group in the main
   region (the paper's ROOT-0 relation).
5. Attach subjects (nsubj / nsubjpass), objects (dobj), prepositional
   phrases (prep + pobj), NP coordination (cc + conj), infinitival
   complements (xcomp) and purpose/conditional clauses (advcl + mark),
   negation (neg), and NP-internal structure (det, poss, amod, nn).

The output relations are exactly the ones PPChecker's pattern matching
and element extraction query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memo import MISS, MemoCache
from repro.nlp.chunker import NounPhrase, chunk_covering, chunk_noun_phrases
from repro.nlp.deptree import ROOT_INDEX, DependencyTree
from repro.nlp.postag import pos_tag
from repro.nlp.tokenizer import Token, tokenize

_SUBORDINATORS = {
    "if", "when", "unless", "upon", "before", "after", "while",
    "because", "although", "though", "whereas", "once", "whenever",
    "until", "since",
}

# Verbs/adjectives taking an infinitival complement (xcomp).
_CONTROL_WORDS = {
    "allow", "permit", "able", "unable", "agree", "want", "need",
    "wish", "require", "continue", "begin", "start", "choose",
    "decide", "intend", "attempt", "try", "fail", "encourage",
    "ask", "authorize", "consent", "help", "enable",
}

_NEG_TOKENS = {"not", "never", "n't", "no", "hardly", "rarely",
               "seldom", "barely", "scarcely", "neither", "nor"}
_BE_LEMMA = "be"
_VERB_TAGS = {"VB", "VBP", "VBZ", "VBD", "VBN", "VBG"}
_FINITE_TAGS = {"VBP", "VBZ", "VBD", "MD", "VBN"}
_NOMINAL_TAGS = {"NN", "NNS", "NNP", "NNPS", "PRP", "CD"}


@dataclass
class VerbGroup:
    """A contiguous auxiliary chain ending at a head verb."""

    start: int
    end: int          # inclusive
    head: int         # index of the head verb
    auxes: list[int] = field(default_factory=list)
    negs: list[int] = field(default_factory=list)
    passive: bool = False
    infinitive: bool = False
    copular_pred: int | None = None  # JJ predicate for "be able"


@dataclass
class _Span:
    marker: int
    start: int
    end: int  # inclusive
    relative: bool = False


def _find_subordinate_spans(tokens: list[Token]) -> list[_Span]:
    spans: list[_Span] = []
    n = len(tokens)
    i = 0
    while i < n:
        tok = tokens[i]
        is_sub = tok.pos == "IN" and tok.lower in _SUBORDINATORS
        is_wrb = tok.pos == "WRB" and tok.lower in ("when", "whenever",
                                                    "where")
        is_rel = tok.pos in ("WDT", "WP") and i > 0 and tokens[
            i - 1
        ].pos in _NOMINAL_TAGS
        if is_sub or is_wrb or is_rel:
            j = i + 1
            while j < n and tokens[j].pos != ",":
                j += 1
            end = j - 1 if j < n else n - 1
            if end > i:
                spans.append(_Span(i, i, end, relative=is_rel))
            i = j + 1
            continue
        i += 1
    return spans


def _in_spans(index: int, spans: list[_Span]) -> _Span | None:
    for span in spans:
        if span.start <= index <= span.end:
            return span
    return None


def _find_verb_groups(tokens: list[Token]) -> list[VerbGroup]:
    groups: list[VerbGroup] = []
    n = len(tokens)
    i = 0
    while i < n:
        tok = tokens[i]
        tag = tok.pos
        starts_infinitive = (
            tag == "TO"
            and i + 1 < n
            and (
                tokens[i + 1].pos in _VERB_TAGS
                or (tokens[i + 1].pos == "RB" and i + 2 < n
                    and tokens[i + 2].pos in _VERB_TAGS)
            )
        )
        if tag == "MD" or tag in _VERB_TAGS or starts_infinitive:
            group = VerbGroup(start=i, end=i, head=i,
                              infinitive=starts_infinitive)
            auxes: list[int] = []
            negs: list[int] = []
            j = i
            head = -1
            last_aux_lemma = ""
            while j < n:
                t = tokens[j]
                if t.pos == "TO" and j == i:
                    auxes.append(j)
                    j += 1
                    continue
                if t.pos == "MD":
                    auxes.append(j)
                    last_aux_lemma = t.lemma
                    j += 1
                    continue
                if t.pos == "RB" or t.lower in _NEG_TOKENS and t.pos != "DT":
                    if t.lower in _NEG_TOKENS:
                        negs.append(j)
                    j += 1
                    continue
                if t.pos in _VERB_TAGS:
                    if t.lemma in ("be", "have", "do") and j + 1 < n and (
                        tokens[j + 1].pos in _VERB_TAGS
                        or tokens[j + 1].pos == "RB"
                        or tokens[j + 1].lower in _NEG_TOKENS
                        or (tokens[j + 1].pos == "JJ"
                            and tokens[j + 1].lower in ("able", "unable"))
                    ):
                        auxes.append(j)
                        last_aux_lemma = t.lemma
                        j += 1
                        continue
                    head = j
                    j += 1
                    break
                break
            if head == -1:
                # bare auxiliary chain ("we are ..." copula, or dangling)
                if auxes and tokens[auxes[-1]].pos in _VERB_TAGS:
                    head = auxes.pop()
                elif auxes:
                    head = auxes[-1]
                    auxes = auxes[:-1]
                else:
                    i += 1
                    continue
                j = max(j, head + 1)
            group.head = head
            group.auxes = auxes
            group.negs = negs
            group.end = j - 1
            head_tok = tokens[head]
            # passive: VBN head with a "be" auxiliary in the chain
            be_auxes = [a for a in auxes if tokens[a].lemma == _BE_LEMMA]
            group.passive = head_tok.pos == "VBN" and bool(be_auxes)
            # copular "be able/unable to"
            if head_tok.lemma == _BE_LEMMA and j < n and tokens[j].pos == "JJ" \
                    and tokens[j].lower in ("able", "unable"):
                group.copular_pred = j
                group.end = j
            groups.append(group)
            i = group.end + 1
            continue
        i += 1
    return groups


def _attach_np_internals(tree: DependencyTree, chunk: NounPhrase) -> None:
    tokens = tree.tokens
    head = chunk.head
    for k in chunk.indices():
        if k == head:
            continue
        tag = tokens[k].pos
        if tag in ("DT", "PDT"):
            tree.add(head, k, "det")
        elif tag == "PRP$":
            tree.add(head, k, "poss")
        elif tag in ("JJ", "JJR", "JJS"):
            tree.add(head, k, "amod")
        elif tag in ("NN", "NNS", "NNP", "NNPS") and k < head:
            tree.add(head, k, "nn")
        elif tag == "POS":
            prev = k - 1
            if prev >= chunk.start:
                tree.add(prev, k, "possessive")
                tree.add(head, prev, "poss")
        elif tag == "CD":
            tree.add(head, k, "num")
        else:
            tree.add(head, k, "dep")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.tree = DependencyTree(tokens)
        self.spans = _find_subordinate_spans(tokens)
        self.groups = _find_verb_groups(tokens)
        in_groups = {
            idx
            for group in self.groups
            for idx in range(group.start, group.end + 1)
        }
        self.chunks = chunk_noun_phrases(tokens, exclude=in_groups)

    # -- helpers ----------------------------------------------------------

    def _group_span(self, group: VerbGroup) -> _Span | None:
        return _in_spans(group.head, self.spans)

    def _attach_verb_group(self, group: VerbGroup, gov: int) -> None:
        """aux/auxpass/neg arcs inside the group, headed at *gov*."""
        tokens = self.tokens
        be_auxes = [a for a in group.auxes if tokens[a].lemma == _BE_LEMMA]
        for a in group.auxes:
            if group.passive and be_auxes and a == be_auxes[-1]:
                self.tree.add(gov, a, "auxpass")
            elif group.copular_pred is not None and tokens[a].lemma == _BE_LEMMA:
                self.tree.add(gov, a, "cop")
            else:
                self.tree.add(gov, a, "aux")
        for nidx in group.negs:
            self.tree.add(gov, nidx, "neg")
        # a negation adverb directly before the group ("we never store")
        probe = group.start - 1
        while probe >= 0 and tokens[probe].pos == "RB":
            if tokens[probe].lower in _NEG_TOKENS:
                self.tree.add(gov, probe, "neg")
            probe -= 1
        if group.copular_pred is not None and tokens[group.head].lemma == _BE_LEMMA:
            self.tree.add(group.copular_pred, group.head, "cop")

    def _governor(self, group: VerbGroup) -> int:
        """The token that stands for the group in the tree."""
        if group.copular_pred is not None:
            return group.copular_pred
        return group.head

    def _attach_subject(self, group: VerbGroup, gov: int,
                        region: tuple[int, int]) -> None:
        candidates = [
            c for c in self.chunks
            if c.end < group.start
            and region[0] <= c.head <= region[1]
            and _in_spans(c.head, self.spans) is _in_spans(group.head, self.spans)
        ]
        if not candidates:
            return
        subj = candidates[-1]
        # skip chunks that are objects of a preposition (but a clause
        # marker like "if"/"when" before the chunk is not a preposition)
        def _prep_governed(chunk: NounPhrase) -> bool:
            if chunk.start == 0:
                return False
            prev = self.tokens[chunk.start - 1]
            if prev.pos == "TO":
                return True
            return prev.pos == "IN" and prev.lower not in _SUBORDINATORS

        while candidates and _prep_governed(subj):
            candidates.pop()
            if not candidates:
                return
            subj = candidates[-1]
        rel = "nsubjpass" if group.passive else "nsubj"
        self.tree.add(gov, subj.head, rel)
        _attach_np_internals(self.tree, subj)

    def _attach_postverbal(self, group: VerbGroup, gov: int,
                           stop: int) -> None:
        """dobj / prep+pobj / NP coordination after the verb up to *stop*."""
        tokens = self.tokens
        i = group.end + 1
        last_obj: int | None = None
        dobj_seen = False
        pending_cc: int | None = None
        attach_verb = group.head if group.copular_pred is None else gov
        while i <= stop:
            tok = tokens[i]
            tag = tok.pos
            is_prep = tag == "IN" or (
                tag == "TO"
                and i + 1 <= stop
                and tokens[i + 1].pos not in ("VB", "VBP", "RB")
            )
            if is_prep:
                chunk = self._next_chunk(i + 1, stop)
                if chunk is not None and chunk.start <= i + 2:
                    self.tree.add(attach_verb, i, "prep")
                    self.tree.add(i, chunk.head, "pobj")
                    _attach_np_internals(self.tree, chunk)
                    last_obj = chunk.head
                    i = chunk.end + 1
                    continue
                i += 1
                continue
            if tag == "CC":
                pending_cc = i
                i += 1
                continue
            if tag in (",", ":"):
                i += 1
                continue
            # "such as X" exemplification: skip "such", let "as" act
            # as the preposition introducing the example NP
            if tag == "PDT" and tok.lower == "such":
                i += 1
                continue
            chunk = chunk_covering(self.chunks, i)
            if chunk is not None and chunk.start == i:
                if last_obj is not None and (pending_cc is not None
                                             or dobj_seen):
                    self.tree.add(last_obj, chunk.head, "conj")
                    if pending_cc is not None:
                        self.tree.add(last_obj, pending_cc, "cc")
                        pending_cc = None
                else:
                    self.tree.add(attach_verb, chunk.head, "dobj")
                    dobj_seen = True
                _attach_np_internals(self.tree, chunk)
                last_obj = chunk.head
                i = chunk.end + 1
                continue
            if tag in ("RB",):
                if tok.lower in _NEG_TOKENS:
                    self.tree.add(attach_verb, i, "neg")
                i += 1
                continue
            break
        # stash for conj-object scanning by later groups
        self._last_obj_of_group = last_obj

    def _next_chunk(self, start: int, stop: int) -> NounPhrase | None:
        for chunk in self.chunks:
            if chunk.start >= start and chunk.end <= stop:
                return chunk
            if chunk.start > stop:
                return None
        return None

    # -- main -------------------------------------------------------------

    def parse(self) -> DependencyTree:
        tokens = self.tokens
        n = len(tokens)
        if n == 0:
            return self.tree

        main_groups = [
            g for g in self.groups
            if self._group_span(g) is None and not g.infinitive
        ]
        root_group: VerbGroup | None = main_groups[0] if main_groups else None
        if root_group is None and self.groups:
            root_group = self.groups[0]

        if root_group is None:
            # verbless fragment: root at the last NP head or token 0
            root_idx = self.chunks[-1].head if self.chunks else 0
            self.tree.add(ROOT_INDEX, root_idx, "root")
            for chunk in self.chunks:
                _attach_np_internals(self.tree, chunk)
                if chunk.head != root_idx:
                    self.tree.add(root_idx, chunk.head, "dep")
            self._attach_rest(root_idx)
            return self.tree

        root_gov = self._governor(root_group)
        self.tree.add(ROOT_INDEX, root_gov, "root")
        self._attach_verb_group(root_group, root_gov)
        self._attach_subject(root_group, root_gov, (0, root_group.start - 1)
                             if root_group.start > 0 else (0, 0))

        # stop postverbal scan at the first subordinate span or next group
        stop = n - 1
        for span in self.spans:
            if span.start > root_group.end:
                stop = min(stop, span.start - 1)
        for g in self.groups:
            if g.start > root_group.end:
                stop = min(stop, g.start - 1)
        self._attach_postverbal(root_group, root_gov, stop)

        prev_main_gov = root_gov
        for group in self.groups:
            if group is root_group:
                continue
            gov = self._governor(group)
            span = self._group_span(group)
            g_stop = n - 1
            for other in self.groups:
                if other.start > group.end:
                    g_stop = min(g_stop, other.start - 1)
            if span is not None:
                g_stop = min(g_stop, span.end)
            else:
                for sp in self.spans:
                    if sp.start > group.end:
                        g_stop = min(g_stop, sp.start - 1)

            if group.infinitive:
                # xcomp for control governors, advcl (purpose) otherwise
                gov_lemma = tokens[prev_main_gov].lemma
                rel = "xcomp" if gov_lemma in _CONTROL_WORDS else "advcl"
                self.tree.add(prev_main_gov, gov, rel)
                self._attach_verb_group(group, gov)
                self._attach_postverbal(group, gov, g_stop)
                continue
            if span is not None:
                head_rel = "rcmod" if span.relative else "advcl"
                attach_to = root_gov
                if span.relative:
                    # attach to the noun immediately before the marker
                    noun = span.marker - 1
                    if 0 <= noun < n and tokens[noun].pos in _NOMINAL_TAGS:
                        attach_to = noun
                self.tree.add(attach_to, gov, head_rel)
                self.tree.add(gov, span.marker, "mark")
                self._attach_verb_group(group, gov)
                self._attach_subject(group, gov, (span.start, group.start - 1))
                self._attach_postverbal(group, gov, g_stop)
                continue
            # further finite group in the main region: coordination
            prev_tok = tokens[group.start - 1] if group.start > 0 else None
            rel = "conj" if prev_tok is not None and prev_tok.pos == "CC" \
                else "dep"
            self.tree.add(root_gov, gov, rel)
            if prev_tok is not None and prev_tok.pos == "CC":
                self.tree.add(root_gov, group.start - 1, "cc")
            self._attach_verb_group(group, gov)
            self._attach_subject(group, gov, (0, group.start - 1))
            self._attach_postverbal(group, gov, g_stop)
            prev_main_gov = gov

        # NP internals for any chunk not yet attached
        for chunk in self.chunks:
            _attach_np_internals(self.tree, chunk)
        self._attach_rest(root_gov)
        return self.tree

    def _attach_rest(self, root_gov: int) -> None:
        for tok in self.tokens:
            if tok.index == root_gov:
                continue
            if self.tree.head_of(tok.index) is None:
                rel = "punct" if tok.pos in (".", ",", ":", "``", "''",
                                             "-LRB-", "-RRB-") else "dep"
                self.tree.add(root_gov, tok.index, rel)


#: sentence -> parsed dependency tree.  Sentence selection parses only
#: sentences that hold a candidate lemma (``policy/selection.py``), so
#: in a study this holds the few thousand template sentences a pattern
#: can match, not every one-off per-app fragment; each pays for
#: tokenization, tagging, and parsing once per process.  Cached trees
#: are shared and read-only by convention (nothing outside this module
#: mutates a DependencyTree after construction).
_PARSE_CACHE = MemoCache("nlp_parse", max_entries=16384)


def parse(sentence: str | list[Token]) -> DependencyTree:
    """Parse a sentence (string or pre-tokenized) to a dependency tree.

    String inputs are memoized process-wide in the ``nlp_parse``
    cache; treat the returned tree as read-only.
    Pre-tokenized inputs always parse fresh -- their tags may differ
    from what the tagger would assign.
    """
    if not isinstance(sentence, str):
        tokens = sentence
        if tokens and not tokens[0].pos:
            pos_tag(tokens)
        return _Parser(tokens).parse()
    cached = _PARSE_CACHE.get(sentence)
    if cached is not MISS:
        return cached
    tokens = tokenize(sentence)
    if tokens and not tokens[0].pos:
        pos_tag(tokens)
    tree = _Parser(tokens).parse()
    _PARSE_CACHE.put(sentence, tree)
    return tree


__all__ = ["parse", "VerbGroup"]
