"""Seeded "planted world" generator.

A world is a set of entity classes, a fixture search engine serving HTML
pages about each class, and a held-out test corpus with gold spans. The
generator plants every context occurrence itself and keeps a record of
each one, so the benchmark can check the program's outputs against what
was planted rather than against a stored copy of some earlier output.

Construction rules that make the records exact:

* Every word is a made-up syllable word drawn once, so each category
  (fillers, one class's context words, entity words, stray capitalised
  words, hosts) is disjoint from every other.
* A context is an ordered pair of its class's context words, and two
  context words are never adjacent except inside a planted pair.
* Every sentence starts with a capitalised token and ends with ". ", so
  the tokenizer puts a sentence break after each sentence's last token.
* Entity placements are flanked by lowercase fillers, so a candidate
  span grows to exactly the entity and no further.
* An example occurrence is either adjacent to a planted context inside
  its sentence, or "bare": at a sentence edge, so its context window
  crosses a sentence break (on the left side, right after a "dangling"
  context that ends the previous sentence) and is rejected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

LEFT = "left"
RIGHT = "right"

# Links kept per query; every query lists fewer links than this.
MAX_RESULTS = 500

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Shape:
    """Make-up and size of one workload's inputs (counts are per class
    unless they name the test corpus)."""

    side: str
    classes: int
    seeds: int  # seed examples, one acquire query each
    test_entities: int  # held-out entities, disjoint from the seeds
    contexts: int  # planted contexts, each next to at least one example
    extra_examples: int  # Zipf-distributed example placements beyond one per context
    others: int  # context placements next to a non-entity
    bare: int  # example occurrences without a usable context window
    pages: int  # training pages
    page_tokens: int  # target tokens per training page
    hosts: int  # hosts serving the class's pages
    mirrors: int  # pages also served under a second URI
    dead_links: int  # listed URIs whose fixture file does not exist
    test_docs: int
    test_tokens: int  # target tokens per test document
    test_placements: int  # entity placements per test document
    test_others: int  # non-entity context placements per test document


SHAPES = {
    # Many short pages and test documents: per-document fixed costs dominate.
    "snippets": Shape(
        side=LEFT,
        classes=3,
        seeds=20,
        test_entities=40,
        contexts=600,
        extra_examples=600,
        others=400,
        bare=100,
        pages=150,
        page_tokens=200,
        hosts=40,
        mirrors=10,
        dead_links=2,
        test_docs=600,
        test_tokens=150,
        test_placements=4,
        test_others=1,
    ),
    # Few long pages and test documents, right-side contexts: per-token
    # costs dominate and weigh's peak RSS is set by token storage.
    "pages": Shape(
        side=RIGHT,
        classes=3,
        seeds=20,
        test_entities=40,
        contexts=600,
        extra_examples=600,
        others=400,
        bare=100,
        pages=8,
        page_tokens=12000,
        hosts=4,
        mirrors=2,
        dead_links=1,
        test_docs=30,
        test_tokens=4000,
        test_placements=100,
        test_others=20,
    ),
}

CLASS_NAMES = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


@dataclass(frozen=True)
class Placement:
    """One planted item. kind is "ex" (context next to an entity), "other"
    (context next to a non-entity token), "bare" (entity with no usable
    window) or "dangling" (context ending a sentence, never counted)."""

    kind: str
    context: tuple[str, ...]
    words: tuple[str, ...]  # entity words, or the one non-entity token


@dataclass
class Doc:
    uri: str
    host: str
    text: str
    tokens: int
    placements: list[Placement]
    spans: list[tuple[Placement, int, int]]  # (placement, first, last) of entity words


@dataclass(frozen=True)
class Expected:
    """Factors of one planted context, by the formulas in the project README."""

    cf: float
    df: float
    lef: float
    icf: float
    w: float


@dataclass
class ClassWorld:
    label: str
    seeds: list[str]
    test_entities: list[str]
    contexts: list[tuple[str, ...]]
    docs: list[Doc]  # every fetchable document, mirrors included
    files: dict[str, str]  # fixture file name -> HTML, one per distinct page
    file_of: dict[str, str]  # uri -> fixture file name
    queries: dict[str, list[str]]  # seed surface -> listed uris, dead links included
    expected: dict[str, Expected] = field(default_factory=dict)  # phrase -> values
    occurrences: int = 0  # example occurrences in the corpus, bare ones included

    @property
    def tokens(self) -> int:
        return sum(d.tokens for d in self.docs)

    @property
    def page_bytes(self) -> int:
        return sum(len(self.files[self.file_of[d.uri]].encode("utf-8")) for d in self.docs)


@dataclass(frozen=True)
class Gold:
    doc: str
    first: int
    last: int
    label: str
    surface: str


@dataclass
class World:
    shape: Shape
    classes: list[ClassWorld]
    test_docs: dict[str, Doc]  # doc id -> document
    gold: list[Gold]

    @property
    def test_tokens(self) -> int:
        return sum(d.tokens for d in self.test_docs.values())

    @property
    def side_flags(self) -> list[str]:
        return ["--side", RIGHT] if self.shape.side == RIGHT else []


class _Vocab:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.taken: set[str] = set()

    def words(self, count: int) -> list[str]:
        out = []
        while len(out) < count:
            syllables = self.rng.randint(2, 3)
            word = "".join(
                self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS)
                for _ in range(syllables)
            )
            if self.rng.random() < 0.4:
                word += self.rng.choice(_CONSONANTS)
            if word not in self.taken:
                self.taken.add(word)
                out.append(word)
        return out


def _zipf(rng: random.Random, items: list, k: int, exponent: float = 0.9) -> list:
    ranked = items[:]
    rng.shuffle(ranked)
    weights = [1.0 / (i + 1) ** exponent for i in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=k)


class _Writer:
    """Renders placements into sentences of one document."""

    def __init__(self, rng: random.Random, side: str, fillers: list[str], strays: list[str]):
        self.rng = rng
        self.side = side
        self.fillers = fillers
        self.strays = strays

    def _fill(self, n: int) -> list[str]:
        return [self.rng.choice(self.fillers) for _ in range(n)]

    def _opening(self) -> str:
        return self.rng.choice(self.fillers).capitalize()

    def filler_sentence(self) -> list[tuple[list[str], list]]:
        toks = [self._opening()]
        for _ in range(self.rng.randint(4, 11)):
            if self.rng.random() < 0.08:
                toks.append(self.rng.choice(self.strays))
            else:
                toks.append(self.rng.choice(self.fillers))
        toks += self._fill(1)  # a stray never ends a sentence
        return [(toks, [])]

    def segment_sentence(self, placements: list[Placement]) -> list[tuple[list[str], list]]:
        """Context placements inside one sentence, each behind >= 1 filler."""
        toks = [self._opening()]
        spans = []
        for p in placements:
            toks += self._fill(self.rng.randint(1, 3))
            if self.side == LEFT:
                toks += p.context
                start = len(toks)
                toks += p.words
            else:
                start = len(toks)
                toks += p.words
                toks += p.context
            spans.append((p, start, start + len(p.words) - 1))
        toks += self._fill(self.rng.randint(0, 3))
        return [(toks, spans)]

    def bare_unit(self, p: Placement, dangling: Placement) -> list[tuple[list[str], list]]:
        """An example whose window crosses a sentence break.

        Left side: the example opens a sentence right after one ending in
        a context. Right side: the example closes its sentence.
        """
        if self.side == LEFT:
            first = [self._opening()] + self._fill(self.rng.randint(1, 4)) + list(dangling.context)
            second = list(p.words) + self._fill(self.rng.randint(2, 6))
            return [(first, [(dangling, -1, -1)]), (second, [(p, 0, len(p.words) - 1)])]
        toks = [self._opening()] + self._fill(self.rng.randint(1, 5))
        start = len(toks)
        toks += p.words
        return [(toks, [(p, start, start + len(p.words) - 1)])]


def _render(units: list[list[tuple[list[str], list]]]) -> tuple[list[str], int, list]:
    """Lay sentence units out in order; returns (sentences, token count, spans)."""
    count = 0
    spans = []
    sentences = []
    for unit in units:
        for toks, rel in unit:
            sentences.append(" ".join(toks) + ".")
            for p, first, last in rel:
                if p.kind != "dangling":
                    spans.append((p, count + first, count + last))
            count += len(toks)
    return sentences, count, spans


def _document(
    writer: _Writer,
    placements: list[Placement],
    target_tokens: int,
    dangling_pool: list[tuple[str, ...]],
) -> tuple[list[str], int, list]:
    rng = writer.rng
    units = []
    pending = [p for p in placements if p.kind in ("ex", "other")]
    while pending:
        take = rng.randint(1, 2)
        units.append(writer.segment_sentence(pending[:take]))
        pending = pending[take:]
    for p in placements:
        if p.kind == "bare":
            dangling = Placement("dangling", rng.choice(dangling_pool), ())
            units.append(writer.bare_unit(p, dangling))
    size = sum(len(toks) for unit in units for toks, _ in unit)
    while size < target_tokens:
        unit = writer.filler_sentence()
        units.append(unit)
        size += len(unit[0][0])
    rng.shuffle(units)
    return _render(units)


def _audit(tokens: list[str], context_words: set[str], planted: int) -> None:
    """Fail on a generator bug: two context words adjacent outside a pair."""
    pairs = sum(
        1
        for a, b in zip(tokens, tokens[1:])
        if a in context_words and b in context_words
    )
    if pairs != planted:
        raise RuntimeError(f"generator planted {planted} contexts but text has {pairs}")


def _html(text_sentences: list[str], rng: random.Random) -> str:
    paragraphs = []
    i = 0
    while i < len(text_sentences):
        n = rng.randint(1, 5)
        chunk = text_sentences[i : i + n]
        i += n
        parts = []
        for s in chunk:
            if rng.random() < 0.2:
                parts.append(f'<span class="s">{s}</span>')
            else:
                parts.append(s)
        sep = "<br/>\n" if rng.random() < 0.2 else "\n"
        paragraphs.append("<p>" + sep.join(parts) + "</p>")
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        "<style>p { margin: 0 }</style><script>var page = 1;</script></head>\n"
        "<body><!-- fixture page -->\n<div>\n"
        + "\n".join(paragraphs)
        + "\n</div></body></html>\n"
    )


def _chunks(items: list, n: int) -> list[list]:
    size, extra = divmod(len(items), n)
    out, at = [], 0
    for i in range(n):
        step = size + (1 if i < extra else 0)
        out.append(items[at : at + step])
        at += step
    return out


def _expected(cw: ClassWorld) -> None:
    with_ex: dict[tuple, int] = {}
    with_oth: dict[tuple, int] = {}
    seen: dict[tuple, set] = {}
    docs: dict[tuple, set] = {}
    sources: dict[tuple, set] = {}
    occurrences = 0
    for doc in cw.docs:
        for p in doc.placements:
            if p.kind in ("ex", "bare"):
                occurrences += 1
            if p.kind not in ("ex", "other"):
                continue
            docs.setdefault(p.context, set()).add(doc.uri)
            sources.setdefault(p.context, set()).add(doc.host)
            if p.kind == "ex":
                with_ex[p.context] = with_ex.get(p.context, 0) + 1
                seen.setdefault(p.context, set()).add(" ".join(p.words))
            else:
                with_oth[p.context] = with_oth.get(p.context, 0) + 1
    total = sum(with_ex.values())
    n_examples = len(cw.seeds)
    for ctx, we in with_ex.items():
        wo = with_oth.get(ctx, 0)
        cf = we / total
        lef = len(seen[ctx]) / n_examples
        df = len(sources[ctx]) / len(docs[ctx])
        icf = we / max(wo, 1)
        cw.expected[" ".join(ctx)] = Expected(cf=cf, df=df, lef=lef, icf=icf, w=cf * lef * df * icf)
    cw.occurrences = occurrences


def _entities(rng: random.Random, vocab: _Vocab, count: int) -> list[str]:
    sizes = rng.choices([1, 2, 3], weights=[5, 4, 1], k=count)
    return [" ".join(w.capitalize() for w in vocab.words(k)) for k in sizes]


def build_world(name: str, seed: int) -> World:
    """Generate workload `name` from `seed`; the same pair gives the same world."""
    shape = SHAPES[name]
    rng = random.Random(f"contextner-bench:{name}:{seed}")
    vocab = _Vocab(rng)
    fillers = vocab.words(600)
    strays = [w.capitalize() for w in vocab.words(150)]
    n_ctx_words = int((2 * shape.contexts) ** 0.5) + 12
    all_context_words: set[str] = set()
    writer = _Writer(rng, shape.side, fillers, strays)

    classes: list[ClassWorld] = []
    for c in range(shape.classes):
        label = CLASS_NAMES[c]
        ctx_words = vocab.words(n_ctx_words)
        all_context_words.update(ctx_words)
        pairs = [(a, b) for a in ctx_words for b in ctx_words if a != b]
        contexts = rng.sample(pairs, shape.contexts)

        seeds = _entities(rng, vocab, shape.seeds)
        tests = _entities(rng, vocab, shape.test_entities)
        hosts = [f"{w}.example.org" for w in vocab.words(shape.hosts)]

        placements = [Placement("ex", ctx, tuple(rng.choice(seeds).split())) for ctx in contexts]
        for ctx in _zipf(rng, contexts, shape.extra_examples):
            placements.append(Placement("ex", ctx, tuple(rng.choice(seeds).split())))
        for ctx in _zipf(rng, contexts, shape.others):
            other = rng.choice(strays) if rng.random() < 0.5 else rng.choice(fillers)
            placements.append(Placement("other", ctx, (other,)))
        for _ in range(shape.bare):
            placements.append(Placement("bare", (), tuple(rng.choice(seeds).split())))
        rng.shuffle(placements)

        cw = ClassWorld(
            label=label,
            seeds=seeds,
            test_entities=tests,
            contexts=contexts,
            docs=[],
            files={},
            file_of={},
            queries={s: [] for s in seeds},
        )
        for i, chunk in enumerate(_chunks(placements, shape.pages)):
            sentences, ntok, spans = _document(writer, chunk, shape.page_tokens, contexts)
            text = " ".join(sentences)
            if shape.side == LEFT:  # each left-side bare example brings a dangling context
                planted = sum(1 for p in chunk if p.kind in ("ex", "other", "bare"))
            else:
                planted = sum(1 for p in chunk if p.kind in ("ex", "other"))
            host = hosts[i % len(hosts)] if i < len(hosts) else rng.choice(hosts)
            file_name = f"{label}_{i:04d}.html"
            cw.files[file_name] = _html(sentences, rng)
            uris = [f"http://{host}/{label}/{i}.html"]
            if i < shape.mirrors:
                mirror_host = rng.choice(hosts)
                uris.append(f"http://{mirror_host}/mirror/{label}/{i}.html")
            tokens_list = text.replace(".", "").split()
            _audit(tokens_list, set(ctx_words), planted)
            for uri in uris:
                doc_host = uri.split("/")[2]
                cw.docs.append(Doc(uri, doc_host, text, ntok, chunk, spans))
                cw.file_of[uri] = file_name
                for surface in sorted({" ".join(p.words) for p in chunk if p.kind in ("ex", "bare")}):
                    cw.queries[surface].append(uri)
        for k in range(shape.dead_links):
            uri = f"http://{rng.choice(hosts)}/gone/{label}/{k}.html"
            cw.file_of[uri] = f"{label}_gone_{k}.html"
            cw.queries[rng.choice(seeds)].append(uri)
        for surface, uris in cw.queries.items():
            rng.shuffle(uris)
            if len(uris) >= MAX_RESULTS:
                raise RuntimeError(f"query {surface!r} lists {len(uris)} links")
        _expected(cw)
        classes.append(cw)

    label_of = {ent: cw.label for cw in classes for ent in cw.test_entities}
    test_docs: dict[str, Doc] = {}
    gold: list[Gold] = []
    for i in range(shape.test_docs):
        chunk = []
        for _ in range(shape.test_placements):
            cw = rng.choice(classes)
            chunk.append(
                Placement("ex", rng.choice(cw.contexts), tuple(rng.choice(cw.test_entities).split()))
            )
        for _ in range(shape.test_others):
            cw = rng.choice(classes)
            other = rng.choice(strays) if rng.random() < 0.5 else rng.choice(fillers)
            chunk.append(Placement("other", rng.choice(cw.contexts), (other,)))
        rng.shuffle(chunk)
        sentences, ntok, spans = _document(writer, chunk, shape.test_tokens, [])
        text = " ".join(sentences)
        _audit(text.replace(".", "").split(), all_context_words, len(chunk))
        doc_id = f"t{i:05d}"
        doc = Doc(f"http://news{i % 7}.example.net/{doc_id}", f"news{i % 7}.example.net", text, ntok, chunk, spans)
        test_docs[doc_id] = doc
        for p, first, last in spans:
            if p.kind == "ex":
                surface = " ".join(p.words)
                gold.append(Gold(doc_id, first, last, label_of[surface], surface))
    return World(shape, classes, test_docs, gold)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def write_world(world: World, directory: Path) -> None:
    """Write fixtures, example files, the test corpus and the gold file."""
    fixtures = directory / "fixtures"
    examples = directory / "examples"
    test_docs = directory / "test" / "docs"
    for d in (fixtures, examples, test_docs):
        d.mkdir(parents=True, exist_ok=True)
    query_rows = ["query\turi\tfile"]
    for cw in world.classes:
        for name, html in cw.files.items():
            _write(fixtures / name, html)
        for surface in cw.seeds:
            for uri in cw.queries[surface]:
                query_rows.append(f"{surface}\t{uri}\t{cw.file_of[uri]}")
        _write(
            examples / f"{cw.label}.tsv",
            "surface\tclass\n" + "".join(f"{s}\t{cw.label}\n" for s in cw.seeds),
        )
    _write(fixtures / "queries.tsv", "\n".join(query_rows) + "\n")
    manifest = ["id\tsource\turi\tkind\tfile"]
    for doc_id, doc in world.test_docs.items():
        _write(test_docs / f"{doc_id}.txt", doc.text)
        manifest.append(f"{doc_id}\t{doc.host}\t{doc.uri}\tplain\tdocs/{doc_id}.txt")
    _write(directory / "test" / "manifest.tsv", "\n".join(manifest) + "\n")
    gold = ["doc\tstart_token\tend_token\tclass"]
    gold += [f"{g.doc}\t{g.first}\t{g.last}\t{g.label}" for g in world.gold]
    _write(directory / "gold.tsv", "\n".join(gold) + "\n")
