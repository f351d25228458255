package repro

import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._

import org.scalatest.funsuite.AnyFunSuite

/** Scala sources must stay text: a C0 control byte other than tab, LF or CR
  * (a literal NUL in particular) makes git show a file's diffs as binary.
  * Write such characters as unicode escapes instead.
  */
class SourceHygieneSpec extends AnyFunSuite {

  private val roots = Seq("src", "bench", "jobs").map(Paths.get(_))

  private def scalaFiles(root: Path): Seq[Path] = {
    val walk = Files.walk(root)
    try walk.iterator.asScala.filter(_.toString.endsWith(".scala")).toVector
    finally walk.close()
  }

  test("no C0 control bytes other than tab, LF and CR in Scala sources") {
    roots.foreach(r => assert(Files.isDirectory(r), s"$r not found; run from the repository root"))
    val files = roots.flatMap(scalaFiles)
    assert(files.nonEmpty)
    val offending = for {
      f <- files
      (line, i) <- new String(Files.readAllBytes(f), "ISO-8859-1").split("\n", -1).zipWithIndex
      c <- line.find(c => c < 0x20 && c != '\t' && c != '\r')
    } yield f"$f:${i + 1}: byte 0x${c.toInt}%02x"
    assert(offending.isEmpty, offending.mkString("\n", "\n", ""))
  }
}
