"""An XMark-like synthetic corpus (paper Section 5.1 substitution).

The paper's second dataset is the XMark auction benchmark at scale 1.0:
one deep XML document (depth about 10) with many **intra-document** IDREF
references (auctions referencing items and sellers).  XMark's ``xmlgen``
generator is unavailable offline, so this module reproduces the schema
skeleton and the two structural properties the experiments depend on —
depth and IDREF density:

    site
      regions/<continent>/item (id attr)
        description/parlist/listitem/parlist/listitem/text   <- depth ~10
      categories/category (id attr) /description
      people/person (id attr) /profile/interest (category ref),
        watches/watch (ref -> item)
      open_auctions/open_auction
        bidder/increase, itemref (ref -> item), seller (ref -> person)
      closed_auctions/closed_auction ...

With ``plant_anecdotes=True`` one item is named "stained" with "mirror" in
its description and is referenced by many auctions, recreating the paper's
'stained mirror' anecdote.
"""

from __future__ import annotations

from typing import List, Optional

from ..xmlmodel.graph import CollectionGraph
from ..xmlmodel.parser import parse_xml
from .dblp import Corpus
from .textgen import PlantedKeywords, TextGenerator

_CONTINENTS = ("africa", "asia", "australia", "europe", "namerica", "samerica")


def _deep_description(gen: TextGenerator, depth: int) -> str:
    """Nested parlist/listitem levels ending in a text block."""
    if depth <= 0:
        return f"<text>{gen.text_block(10, 40)}</text>"
    inner = _deep_description(gen, depth - 1)
    return f"<parlist><listitem>{inner}</listitem><listitem><text>{gen.text_block(5, 20)}</text></listitem></parlist>"


def generate_xmark(
    num_items: int = 120,
    num_people: int = 60,
    num_auctions: int = 150,
    num_categories: int = 10,
    seed: int = 23,
    planted: Optional[PlantedKeywords] = None,
    plant_anecdotes: bool = False,
    doc_id: int = 0,
) -> Corpus:
    """Generate one deep XMark-like auction document."""
    gen = TextGenerator(seed=seed, planted=planted)

    categories: List[str] = []
    for c in range(num_categories):
        categories.append(
            f'<category id="cat{c}">'
            f"<name>{gen.title(1, 2)}</name>"
            f"<description><text>{gen.text_block(8, 25)}</text></description>"
            f"</category>"
        )

    items: List[str] = []
    for i in range(num_items):
        gen.new_scope()  # striping scope: one per top-level entity
        continent = _CONTINENTS[i % len(_CONTINENTS)]
        name = gen.title(1, 3)
        description_depth = 2 + (i % 3)
        description = _deep_description(gen, description_depth)
        if plant_anecdotes and i == 0:
            name = "stained"
            description = (
                f"<parlist><listitem><text>antique mirror with "
                f"{gen.text_block(8, 20)}</text></listitem></parlist>"
            )
        items.append(
            f'<item id="item{i}" featured="{"yes" if i % 7 == 0 else "no"}">'
            f"<location>{continent}</location>"
            f"<name>{name}</name>"
            f"<payment>{gen.choice(['cash', 'check', 'credit'])}</payment>"
            f"<description>{description}</description>"
            f"<quantity>{gen.randint(1, 5)}</quantity>"
            f"</item>"
        )

    people: List[str] = []
    for p in range(num_people):
        interests = "".join(
            f'<interest ref="cat{gen.randint(0, num_categories - 1)}"/>'
            for _ in range(gen.randint(0, 3))
        )
        watches = "".join(
            f'<watch ref="item{gen.randint(0, num_items - 1)}"/>'
            for _ in range(gen.randint(0, 2))
        )
        people.append(
            f'<person id="person{p}">'
            f"<name>{gen.name()}</name>"
            f"<emailaddress>mailto person{p} example com</emailaddress>"
            f"<profile income=\"{gen.randint(20, 200)}\">"
            f"<education>{gen.choice(['high school', 'college', 'graduate school'])}</education>"
            f"{interests}</profile>"
            f"<watches>{watches}</watches>"
            f"</person>"
        )

    auctions: List[str] = []
    for a in range(num_auctions):
        gen.new_scope()
        if plant_anecdotes and a < 20:
            item_ref = 0  # many auctions reference the 'stained' item
        else:
            item_ref = gen.randint(0, num_items - 1)
        seller = gen.randint(0, num_people - 1)
        bidders = "".join(
            f"<bidder><date>{gen.randint(1, 28)} {gen.randint(1, 12)} 2000</date>"
            f"<increase>{gen.randint(1, 50)}</increase></bidder>"
            for _ in range(gen.randint(0, 4))
        )
        auctions.append(
            f"<open_auction>"
            f"<initial>{gen.randint(5, 500)}</initial>"
            f"{bidders}"
            f'<itemref ref="item{item_ref}"/>'
            f'<seller ref="person{seller}"/>'
            f"<annotation>{gen.text_block(5, 25)}</annotation>"
            f"</open_auction>"
        )

    closed: List[str] = []
    for c in range(num_auctions // 3):
        closed.append(
            f"<closed_auction>"
            f'<itemref ref="item{gen.randint(0, num_items - 1)}"/>'
            f'<buyer ref="person{gen.randint(0, num_people - 1)}"/>'
            f"<price>{gen.randint(10, 900)}</price>"
            f"</closed_auction>"
        )

    region_items: List[List[str]] = [[] for _ in _CONTINENTS]
    for i, item in enumerate(items):
        region_items[i % len(_CONTINENTS)].append(item)
    regions = "".join(
        f"<{continent}>{''.join(bucket)}</{continent}>"
        for continent, bucket in zip(_CONTINENTS, region_items)
    )

    source = (
        "<site>"
        f"<regions>{regions}</regions>"
        f"<categories>{''.join(categories)}</categories>"
        f"<people>{''.join(people)}</people>"
        f"<open_auctions>{''.join(auctions)}</open_auctions>"
        f"<closed_auctions>{''.join(closed)}</closed_auctions>"
        "</site>"
    )

    document = parse_xml(source, doc_id=doc_id, uri="xmark")
    graph = CollectionGraph()
    graph.add_document(document)
    graph.finalize()
    return Corpus("xmark", graph, [document], planted, [source])
