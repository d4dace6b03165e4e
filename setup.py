from setuptools import setup, Extension

# The compiled coset-enumeration kernel is optional: without a C compiler
# the build skips it and the package uses the pure-Python kernel.
setup(ext_modules=[Extension("hyperforge._tccore",
                             ["src/hyperforge/_tccore.c"], optional=True)])
