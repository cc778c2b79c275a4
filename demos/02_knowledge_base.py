"""Resolve locations through the knowledge-base layer, fully offline.

The fixture cache ships every item, page and link lookup the demos touch, so
the resolver runs under the cache-only policy: an attempted network call
raises instead of silently going online. The same code path serves live
lookups when the policy is online-then-cache.
"""

from pathlib import Path

from newsgeo.config import load_config

FIXTURES = Path(__file__).resolve().parents[1] / "data" / "fixtures"


def main() -> None:
    config = load_config(FIXTURES / "config.json")
    cache = config.build_cache()
    print(f"cache {config.cache_path().name}: {len(cache)} entries, policy {config.network!r}")
    resolver = config.build_resolver(cache)

    print()
    print("category names classify to locations when their WikiData item reaches a country:")
    for category, language in (("Paris", "en"), ("Canadá", "es"), ("Politics", "en")):
        location = resolver.locate_surface(category, language)
        print(f"  {category!r} ({language}) -> {location}")

    print()
    print("containment chains are walked until an instance-of label names a city:")
    for qid in ("Q999101", "Q243", "Q999104"):
        item = resolver.wikidata.fetch(qid)
        location = resolver.locate_item(item)
        print(f"  {item.label()} ({qid}) -> {location}")

    print()
    print("non-location pages reveal locations through their geographic properties:")
    for surface in ("Queen Elizabeth II", "Eiffel Tower"):
        located = resolver.implicit_locate(surface, "en")
        print(f"  {surface!r} via {located.via_property!r} -> {located.location_text()}")


if __name__ == "__main__":
    main()
