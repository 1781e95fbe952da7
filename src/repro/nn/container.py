"""The module container: :class:`ModuleList`, which MLP and the TGAE encoder use."""

from __future__ import annotations

from typing import Iterable, Iterator, List

from .module import Module


class ModuleList(Module):
    """A list of sub-modules that registers their parameters."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self.items: List[Module] = list(modules)

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not called
        """Raise: a container is not called, its items are."""
        raise NotImplementedError("ModuleList is a container; call its items directly")

    def __iter__(self) -> Iterator[Module]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]

    def append(self, module: Module) -> "ModuleList":
        """Add ``module`` at the end and return the list."""
        self.items.append(module)
        return self
