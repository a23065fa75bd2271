"""Build script: compiles the optional bitset-kernel extension.

The extension is one hand-written C source, src/specconn/_kernels.c, built
with whatever C compiler setuptools finds. It is a pure speedup: if no
compiler is available the install proceeds and specconn falls back to the
pure-Python kernels at import time.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """build_ext that degrades to a warning instead of failing the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            f"warning: building the specconn._kernels extension failed ({exc}); "
            "the pure-Python kernels will be used instead",
            file=sys.stderr,
        )


setup(
    ext_modules=[Extension("specconn._kernels", ["src/specconn/_kernels.c"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
