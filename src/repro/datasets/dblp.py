"""A DBLP-like synthetic corpus (paper Section 5.1 substitution).

The paper evaluates on the real 143 MB DBLP dump; what its experiments
actually exercise are DBLP's *structural* properties, which this generator
reproduces at a configurable scale:

* shallow nesting — depth about 4 (article → title/author/abstract →
  text), "DBLP data is relatively shallow with a depth of about 4";
* many small documents — each publication is its own XML document;
* many **inter-document** references — bibliographic citations become
  XLink references whose target distribution is preferentially attached,
  giving the skewed in-degree a citation graph really has (and hence a
  meaningful ElemRank spread);
* a reused author pool, so author names have realistic selectivity.

With ``plant_anecdotes=True`` the generator also plants the Section 5.2
ranking-quality entities: a heavily cited author ("gray") and a handful of
moderately cited papers titled about "gray codes", so the anecdotal queries
('gray', 'author gray') can be replayed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..xmlmodel.graph import CollectionGraph
from ..xmlmodel.nodes import Document
from ..xmlmodel.parser import parse_xml
from .textgen import PlantedKeywords, TextGenerator

_VENUES = (
    "sigmod", "vldb", "icde", "sigir", "kdd", "edbt", "cikm", "pods",
)


@dataclass
class Corpus:
    """A generated corpus plus the graph it was loaded into."""

    name: str
    graph: CollectionGraph
    documents: List[Document] = field(default_factory=list)
    planted: Optional[PlantedKeywords] = None
    #: Raw XML text per document, aligned with ``documents`` — lets the
    #: parallel-build pipeline (and its benchmark) re-run the full
    #: parse + tokenize path instead of starting from parsed trees.
    sources: List[str] = field(default_factory=list)

    @property
    def num_documents(self) -> int:
        return len(self.documents)

    @property
    def num_elements(self) -> int:
        self.graph.finalize()
        return len(self.graph.elements)


def _citations(
    rng: random.Random, paper_index: int, max_refs: int, popularity: List[int]
) -> List[int]:
    """Preferentially attached citation targets among earlier papers."""
    if paper_index == 0:
        return []
    count = rng.randint(0, max_refs)
    targets: List[int] = []
    total = sum(popularity[:paper_index])
    for _ in range(count):
        if rng.random() < 0.3 or total == 0:
            target = rng.randrange(paper_index)
        else:
            # Roulette-wheel over current in-degree (rich get richer).
            point = rng.uniform(0, total)
            acc = 0.0
            target = paper_index - 1
            for i in range(paper_index):
                acc += popularity[i]
                if acc >= point:
                    target = i
                    break
        if target not in targets:
            targets.append(target)
            popularity[target] += 1
            total += 1
    return targets


def generate_dblp(
    num_papers: int = 300,
    seed: int = 11,
    planted: Optional[PlantedKeywords] = None,
    plant_anecdotes: bool = False,
    max_refs: int = 6,
    start_doc_id: int = 0,
) -> Corpus:
    """Generate a DBLP-like corpus of ``num_papers`` single-paper documents."""
    gen = TextGenerator(seed=seed, planted=planted)
    rng = random.Random(seed * 31 + 7)
    popularity = [1] * num_papers

    anecdote_cited = set()
    gray_code_papers = set()
    if plant_anecdotes:
        # A famous, heavily cited author and some Gray-code papers.
        anecdote_cited = set(range(0, min(3, num_papers)))
        gray_code_papers = set(
            range(min(5, num_papers), min(8, num_papers))
        )

    sources: List[str] = []
    for i in range(num_papers):
        gen.new_scope()  # one striping scope per paper (document)
        title = gen.title()
        if i in gray_code_papers:
            title = f"efficient generation of gray codes {gen.title(2, 4)}"
        authors = [gen.name() for _ in range(gen.randint(1, 3))]
        if i in anecdote_cited:
            authors[0] = "jim gray"
        venue = gen.choice(_VENUES)
        year = 1990 + (i % 14)
        refs = _citations(rng, i, max_refs, popularity)
        if plant_anecdotes and i not in anecdote_cited:
            # Funnel extra citations onto the famous papers.
            for famous in anecdote_cited:
                if rng.random() < 0.25 and famous not in refs:
                    refs.append(famous)
        author_xml = "".join(f"<author>{a}</author>" for a in authors)
        cite_xml = "".join(
            f'<cite xlink="paper{t}">{gen.title(2, 4)}</cite>' for t in refs
        )
        abstract = gen.text_block(20, 60)
        body = "".join(
            f"<section name=\"{gen.title(1, 3)}\">{gen.text_block(15, 50)}</section>"
            for _ in range(gen.randint(1, 3))
        )
        sources.append(
            f'<article key="{venue}/{year}/{i}">'
            f"<title>{title}</title>"
            f"{author_xml}"
            f"<year>{year}</year>"
            f"<venue>{venue}</venue>"
            f"<abstract>{abstract}</abstract>"
            f"<body>{body}</body>"
            f"<references>{cite_xml}</references>"
            f"</article>"
        )

    graph = CollectionGraph()
    documents: List[Document] = []
    for i, source in enumerate(sources):
        document = parse_xml(
            source,
            doc_id=start_doc_id + i,
            uri=f"paper{i}",
            word_table=graph.word_table,
        )
        documents.append(document)
        graph.add_document(document)
    graph.finalize()
    return Corpus("dblp", graph, documents, planted, sources)


def save_corpus(corpus: Corpus, directory) -> List[str]:
    """Write a generated corpus as one ``.xml`` file per document.

    File names derive from each document's URI (``paper3`` →
    ``paper3.xml``), and inter-document XLink targets inside the serialized
    text are rewritten to the file names, so indexing the directory with
    the CLI (which uses relative file paths as URIs) re-resolves every
    citation edge exactly as the in-memory graph did.  Returns the written
    file names.
    """
    import re
    from pathlib import Path

    from ..xmlmodel.serialize import document_to_xml

    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    name_of = {}
    for document in corpus.documents:
        name = document.uri or f"doc{document.doc_id}"
        if not name.endswith(".xml"):
            name = f"{name}.xml"
        name_of[document.uri] = name

    link_pattern = re.compile(r'((?:xlink|href)=")([^"#]+)((?:#[^"]*)?")')

    def rewrite(match: re.Match) -> str:
        uri = match.group(2)
        return match.group(1) + name_of.get(uri, uri) + match.group(3)

    written: List[str] = []
    for document in corpus.documents:
        text = link_pattern.sub(rewrite, document_to_xml(document))
        name = name_of[document.uri]
        (target / name).write_text(text, encoding="utf-8")
        written.append(name)
    return written
