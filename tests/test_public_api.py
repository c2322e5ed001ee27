"""The public API is the documented one."""

from pathlib import Path

import trajcal

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_is_in_the_readme():
    text = README.read_text()
    missing = [name for name in trajcal.__all__
               if f"`{name}`" not in text and f"`trajcal.{name}`" not in text]
    assert missing == []
